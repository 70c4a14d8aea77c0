"""The marker alphabet used to record machine runs in a grid.

Three disjoint marker classes over a machine's tape symbols and states:

* ``[a]``     an unscanned cell holding symbol a,
* ``[a,q]``   the scanned cell, with the current state q,
* ``<a|q>``   a cell scanned in the *next* step, carrying that step's
              state q (never the start state).
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
    tokens: list[str] = []
    unscanned: dict[str, int] = {}
    scanned: dict[tuple[str, str], int] = {}
    transmission: dict[tuple[str, str], int] = {}
    for a in machine.tape_symbols:
        unscanned[a] = len(tokens)
        tokens.append(f"[{a}]")
    for a in machine.tape_symbols:
        for q in machine.states:
            scanned[(a, q)] = len(tokens)
            tokens.append(f"[{a},{q}]")
    for a in machine.tape_symbols:
        for q in machine.states:
            if q == machine.start:
                continue
            transmission[(a, q)] = len(tokens)
            tokens.append(f"<{a}|{q}>")
    alphabet = Alphabet(tokens)
    return MarkerAlphabet(
        machine,
        alphabet,
        {a: alphabet.symbols[i] for a, i in unscanned.items()},
        {aq: alphabet.symbols[i] for aq, i in scanned.items()},
        {aq: alphabet.symbols[i] for aq, i in transmission.items()},
    )
