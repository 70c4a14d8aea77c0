"""The marker alphabet used to record machine runs in a grid.

Three disjoint marker classes over a machine's tape symbols and states:

* ``[a]``     an unscanned cell holding symbol a,
* ``[a,q]``   the scanned cell, with the current state q,
* ``<a|q>``   a cell scanned in the *next* step, carrying that step's
              state q (never the start state: run convention 3).

Each token is written once, in ``marker_alphabet``; each lookup is then
one dict access, as the tableau builders call them once per cell.
"""

from __future__ import annotations

from .records import record
from .rex import Alphabet, Symbol
from .turing import TuringMachine


@record(hidden=("_unscanned", "_scanned", "_transmission"))
class MarkerAlphabet:
    machine: TuringMachine
    alphabet: Alphabet
    _unscanned: dict
    _scanned: dict
    _transmission: dict

    def unscanned(self, a: str) -> Symbol:
        return self._unscanned[a]

    def scanned(self, a: str, q: str) -> Symbol:
        return self._scanned[(a, q)]

    def transmission(self, a: str, q: str) -> Symbol:
        return self._transmission[(a, q)]

    @property
    def unscanned_all(self) -> list[Symbol]:
        return list(self._unscanned.values())

    @property
    def transmission_all(self) -> list[Symbol]:
        return list(self._transmission.values())


def marker_alphabet(machine: TuringMachine) -> MarkerAlphabet:
    """Deterministic marker alphabet for a machine.

    Order: all ``[a]``, then all ``[a,q]`` (symbol-major), then all
    ``<a|q>`` for q other than the start state.
    """
    tape, states = machine.tape_symbols, machine.states
    unscanned, scanned, transmission = {}, {}, {}
    scheme = (
        [(unscanned, a, f"[{a}]") for a in tape]
        + [(scanned, (a, q), f"[{a},{q}]") for a in tape for q in states]
        + [(transmission, (a, q), f"<{a}|{q}>")
           for a in tape for q in states if q != machine.start]
    )
    alphabet = Alphabet([token for _, _, token in scheme])
    for (lookup, key, _), symbol in zip(scheme, alphabet.symbols):
        lookup[key] = symbol
    return MarkerAlphabet(machine, alphabet, unscanned, scanned, transmission)
