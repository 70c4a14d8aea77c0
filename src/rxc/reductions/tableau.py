"""Row and column expressions that pin a grid to a halting machine run.

The row expression fixes the initial configuration and allows exactly
one in-flight transition per later row; the column expression (an
intersection of a "static" and a "write" part) forces each tape cell's
history to be consistent with the machine.  A grid satisfies both iff
it is the tableau of the halting run, so the solution is unique when
the machine halts and absent when it does not.

This holds for runs that keep the run conventions of :mod:`rxc.turing`:
q1 comes from ``initial_state``, which refuses a machine breaking
convention 2.  ``initial_cells`` builds the first row's fixed cells for
both this reduction and the SAT one.
"""

from __future__ import annotations

from ..grids import Grid
from ..markers import MarkerAlphabet, marker_alphabet
from ..rex import Inter, Regex, concat, inter, lit, opt, plus, star, union_
from ..turing import LEFT, MachineError, TuringMachine, initial_state


def _sym(markers: MarkerAlphabet, symbol) -> Regex:
    return lit(markers.alphabet, symbol.token)


def transition_row_body(machine: TuringMachine, markers: MarkerAlphabet | None = None) -> Regex:
    """The U* T U* part shared by all non-initial rows.

    T pairs a scanned marker with the state-transmission marker sitting
    on the side the head moves to, grouped by the transmitted state so
    the expression stays linear in the machine size, plus the lone
    halting markers.
    """
    if markers is None:
        markers = marker_alphabet(machine)
    unscanned = union_([_sym(markers, s) for s in markers.unscanned_all])

    by_target_left: dict[str, list] = {}
    by_target_right: dict[str, list] = {}
    for q in machine.nonhalting_states:
        if q == machine.start:
            continue
        for a in machine.tape_symbols:
            r, _, d = machine.rules[(q, a)]
            if r == machine.start:
                # no transmission marker carries the start state (run
                # convention 3), so no row may mention such a rule
                continue
            group = by_target_left if d == LEFT else by_target_right
            group.setdefault(r, []).append((a, q))

    alternatives = []
    for r, sources in sorted(by_target_left.items()):
        incoming = union_([_sym(markers, markers.transmission(b, r))
                           for b in machine.tape_symbols])
        scanned = union_([_sym(markers, markers.scanned(a, q)) for a, q in sources])
        alternatives.append(concat([incoming, scanned]))
    for r, sources in sorted(by_target_right.items()):
        scanned = union_([_sym(markers, markers.scanned(a, q)) for a, q in sources])
        outgoing = union_([_sym(markers, markers.transmission(b, r))
                           for b in machine.tape_symbols])
        alternatives.append(concat([scanned, outgoing]))
    for a in machine.tape_symbols:
        alternatives.append(_sym(markers, markers.scanned(a, machine.halt)))

    return concat([star(unscanned), union_(alternatives), star(unscanned)])


def initial_cells(machine: TuringMachine, input_string,
                  markers: MarkerAlphabet) -> list[Regex]:
    """The first row's cells from the transmission into q1 through the
    last input cell: ``<B|q1>`` ``[B,start]`` then ``[a]`` per input
    symbol.  Raises :class:`AssumptionError` if the machine breaks run
    convention 2."""
    blank = machine.blank
    cells = [
        _sym(markers, markers.transmission(blank, initial_state(machine))),
        _sym(markers, markers.scanned(blank, machine.start)),
    ]
    for sym in input_string:
        if sym == blank:
            raise MachineError("input string may not contain the blank symbol")
        cells.append(_sym(markers, markers.unscanned(sym)))
    return cells


def initial_row_expr(machine: TuringMachine, input_string, markers: MarkerAlphabet | None = None) -> Regex:
    """The first-row expression: the initial cells, then one or more blanks."""
    if markers is None:
        markers = marker_alphabet(machine)
    blanks = plus(_sym(markers, markers.unscanned(machine.blank)))
    return concat(initial_cells(machine, input_string, markers) + [blanks])


def row_expression(machine: TuringMachine, input_string,
                   markers: MarkerAlphabet | None = None) -> Regex:
    """The full row expression: initial row or one-transition row."""
    if markers is None:
        markers = marker_alphabet(machine)
    return union_([
        initial_row_expr(machine, input_string, markers),
        transition_row_body(machine, markers),
    ])


def column_expression(machine: TuringMachine,
                      markers: MarkerAlphabet | None = None) -> Regex:
    """The column expression: the static part intersected with the write
    part.  Depends on the machine only, not on the input string."""
    if markers is None:
        markers = marker_alphabet(machine)
    q1 = initial_state(machine)
    blank = machine.blank
    tape = machine.tape_symbols

    def scan_block(a: str, repeat) -> Regex:
        arrivals = union_([
            concat([_sym(markers, markers.transmission(a, q)),
                    _sym(markers, markers.scanned(a, q))])
            for q in machine.states if q != machine.start
        ])
        return concat([repeat(_sym(markers, markers.unscanned(a))), arrivals])

    first_scan = union_([scan_block(a, plus) for a in tape])   # unscanned run, then first arrival
    rescan = union_([scan_block(a, star) for a in tape])       # interval between later scans
    tail = union_([star(_sym(markers, markers.unscanned(a))) for a in tape])
    static = concat([
        union_([
            first_scan,
            _sym(markers, markers.scanned(blank, machine.start)),
            concat([_sym(markers, markers.transmission(blank, q1)),
                    _sym(markers, markers.scanned(blank, q1))]),
        ]),
        star(rescan),
        tail,
    ])

    by_written: dict[str, list] = {}
    for q in machine.nonhalting_states:
        for a in tape:
            _, written, _ = machine.rules[(q, a)]
            by_written.setdefault(written, []).append((a, q))
    writes = []      # scanned marker followed by the written symbol, unscanned
    handoffs = []    # scanned marker followed by a transmission with the written symbol
    for written in tape:
        sources = by_written.get(written)
        if not sources:
            continue
        scanned = union_([_sym(markers, markers.scanned(a, q)) for a, q in sources])
        writes.append(concat([scanned, _sym(markers, markers.unscanned(written))]))
        outgoing = union_([_sym(markers, markers.transmission(written, s))
                           for s in machine.states if s != machine.start])
        handoffs.append(concat([scanned, outgoing]))
    halting = union_([_sym(markers, markers.scanned(a, machine.halt)) for a in tape])
    unscanned_or_transmission = union_(
        [_sym(markers, s) for s in markers.unscanned_all]
        + [_sym(markers, s) for s in markers.transmission_all]
    )
    z_star = star(unscanned_or_transmission)
    write_part = concat([
        z_star,
        star(union_([concat([union_(writes), z_star]), union_(handoffs)])),
        opt(halting),
    ])

    return static & write_part


def squarify_col_expr(col_expr: Regex, machine: TuringMachine) -> Regex:
    """Also admit all-blank columns, so never-scanned padding cells are legal
    and a square grid exists whenever any grid does.

    The blank columns B = ``[blank]+`` are added to each part of a root
    intersection, by (S & W) | B = (S | B) & (W | B), so the result is
    still an intersection at the root; any other expression gets the
    plain union.
    """
    blanks = plus(lit(col_expr.alphabet, f"[{machine.blank}]"))
    node = col_expr.node
    parts = node.parts if isinstance(node, Inter) else (node,)
    return inter([union_([Regex(p, col_expr.alphabet), blanks]) for p in parts])


def pad_right_with_blanks(tableau: Grid, machine: TuringMachine, width: int) -> Grid:
    """Append never-scanned all-blank columns on the right."""
    if width < tableau.n:
        raise ValueError(f"cannot pad a {tableau.n}-column grid to width {width}")
    blank_id = tableau.alphabet.symbol(f"[{machine.blank}]").id
    extra = width - tableau.n
    cells = tuple(row + (blank_id,) * extra for row in tableau.cells)
    return Grid(tableau.alphabet, cells)
