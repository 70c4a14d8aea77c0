"""From CNF satisfiability to crossword existence, with exact counts.

A clocked evaluator machine reads a formula encoding, then the
assignment bits appended after a blank separator.  The evaluator built
here sweeps the assignment once per clause, diverges as soon as a
clause fails, and reaches its halting state after a step count that
depends only on the formula shape, never on the assignment; the exact
clock is verified empirically over all assignments before any artifact
is returned.

The marker-level puzzle pairs the run-tableau row expression (the
initial cells of :func:`rxc.reductions.tableau.initial_cells` extended
by a blank, the assignment block and an exact blank tail) with the
blank-column-tolerant column expression; its solutions are exactly one
padded tableau per satisfying assignment.  That holds only for runs
that keep the run conventions, so ``sat_reduce`` checks them with the
checker of :mod:`rxc.turing` and adds only its SAT-specific checks.
The binary-level pair applies the letter-square encoding on top.
"""

from __future__ import annotations

from functools import cached_property

from ..grids import Grid
from ..markers import MarkerAlphabet, marker_alphabet
from ..oracle import CnfFormula
from ..records import record
from ..rex import Regex, concat, union_
from ..turing import TuringMachine, run_path, run_violation, simulate, total_machine
from .binary import binarize_expr
from .merge import merge_rc
from .tableau import (
    _sym,
    column_expression,
    initial_cells,
    pad_right_with_blanks,
    squarify_col_expr,
    transition_row_body,
)

_EVAL_BUDGET_FACTOR = 3
_MAX_EMPIRICAL_VARS = 12


class EvaluatorError(ValueError):
    pass


def encode_formula(formula: CnfFormula) -> str:
    """Fixed-width encoding: one block of k characters per clause, with
    '1' for a positive literal, '0' for a negated one, '#' for absent."""
    k = formula.var_count
    blocks = []
    for clause in formula.clauses:
        chars = ["#"] * k
        for literal in clause:
            v = abs(literal) - 1
            wanted = "1" if literal > 0 else "0"
            if chars[v] not in ("#", wanted):
                raise EvaluatorError(
                    f"variable x{v} appears with both signs in one clause; "
                    "this encoding has one character per variable and clause"
                )
            chars[v] = wanted
        blocks.append("".join(chars))
    return "".join(blocks)


def evaluator_clock(formula: CnfFormula) -> int:
    """Configurations in a halting run: the exact clock p."""
    k = formula.var_count
    m = len(formula.clauses)
    n = k * m
    return n + (m - 1) * (2 * k + 2) + k + 6


def sat_evaluator(formula: CnfFormula) -> tuple[TuringMachine, str, int]:
    """Build the clocked evaluator for a formula.

    Returns (machine, formula encoding, clock).  The machine walks over
    the encoding, then sweeps the assignment once per clause, carrying
    the clause verdict in its state; an unsatisfied clause sends it into
    a two-cell bounce that never halts.
    """
    w = encode_formula(formula)
    k = formula.var_count
    m = len(formula.clauses)
    signs = [
        {abs(l) - 1: (1 if l > 0 else 0) for l in clause}
        for clause in formula.clauses
    ]
    tape = ("B", "0", "1", "#") if "#" in w else ("B", "0", "1")
    blank = "B"

    def r(i: int, j: int, v: bool) -> str:
        return f"c{i}b{j}{'t' if v else 'f'}"

    def end(i: int, v: bool) -> str:
        return f"e{i}{'t' if v else 'f'}"

    states = ["q0", "q1", "q2", "walk"]
    rules: dict[tuple[str, str], tuple[str, str, str]] = {
        ("q0", blank): ("q1", blank, "L"),
        ("q1", blank): ("q2", blank, "R"),
        ("q2", blank): ("walk", blank, "R"),
    }
    for c in tape[1:]:
        rules[("walk", c)] = ("walk", c, "R")
    rules[("walk", blank)] = (r(0, 0, False), blank, "R")

    for i in range(m):
        reached = [(0, False)] + [(j, v) for j in range(1, k) for v in (False, True)]
        for j, v in reached:
            states.append(r(i, j, v))
            for b in "01":
                v2 = v or (signs[i].get(j) == int(b))
                if j + 1 < k:
                    target = r(i, j + 1, v2)
                else:
                    target = end(i, v2)
                rules[(r(i, j, v), b)] = (target, b, "R")
        for v in (False, True):
            states.append(end(i, v))
        if i + 1 < m:
            back = f"w{i + 1}"
            states.append(back)
            rules[(end(i, True), blank)] = (back, blank, "L")
            for b in "01":
                rules[(back, b)] = (back, b, "L")
            rules[(back, blank)] = (r(i + 1, 0, False), blank, "R")
        else:
            rules[(end(i, True), blank)] = ("qh", blank, "L")
        rules[(end(i, False), blank)] = ("la", blank, "R")

    states.extend(["la", "lb", "qh"])
    for c in tape:
        rules[("la", c)] = ("lb", c, "R")
        rules[("lb", c)] = ("la", c, "L")
    machine = total_machine(states, tape, blank, "q0", "qh", rules)
    return machine, w, evaluator_clock(formula)


@record(frozen=False)
class SatReductionArtifacts:
    formula: CnfFormula
    machine: TuringMachine
    input_string: str
    p: int
    markers: MarkerAlphabet
    row_expr: Regex
    col_expr: Regex          # machine-run columns only
    col_expr_square: Regex   # plus all-blank padding columns
    ell: int                 # marker alphabet size
    q: int                   # side of every binary-level solution
    halting_assignments: tuple[tuple[int, ...], ...]

    @cached_property
    def row_expr_binary(self) -> Regex:
        return binarize_expr(self.ell, self.row_expr)

    @cached_property
    def col_expr_binary(self) -> Regex:
        return binarize_expr(self.ell, self.col_expr_square)


def _tape(machine: TuringMachine, w: str, assignment) -> list[str]:
    """The tape ``w B a`` for an assignment a."""
    return list(w) + [machine.blank] + [str(b) for b in assignment]


def sat_reduce(
    formula: CnfFormula,
    machine: TuringMachine | None = None,
    input_string: str | None = None,
    p: int | None = None,
) -> SatReductionArtifacts:
    """Assemble and empirically validate the whole reduction.

    Any evaluator may be supplied; omitted pieces come from
    :func:`sat_evaluator`.  The evaluator must keep run conventions 2
    and 3, checked by ``turing.initial_state`` and
    ``turing.run_violation``.  Validation runs every assignment
    (``turing.run_path``) and also demands: halting exactly on
    satisfying assignments, an identical step count p-1 on all of them,
    the head never right of cell p-2, and the whole of ``w B a``
    scanned.
    """
    if machine is None:
        machine, default_w, default_p = sat_evaluator(formula)
        input_string = default_w if input_string is None else input_string
        p = default_p if p is None else p
    if input_string is None or p is None:
        raise EvaluatorError("a custom evaluator needs its encoding and clock")
    k = formula.var_count
    n = len(input_string)
    if k > _MAX_EMPIRICAL_VARS:
        raise EvaluatorError(f"empirical validation is capped at {_MAX_EMPIRICAL_VARS} variables")
    if p < 2 * n + 3:
        raise EvaluatorError(f"clock {p} is below the minimum 2n+3 = {2 * n + 3}")
    if p - n - k - 3 < 0:
        raise EvaluatorError(f"clock {p} leaves no room for the blank tail")

    markers = marker_alphabet(machine)
    head = initial_cells(machine, input_string, markers)  # run convention 2
    budget = _EVAL_BUDGET_FACTOR * p
    halting: list[tuple[int, ...]] = []
    for bits in _all_assignments(k):
        expected = formula.satisfied_by(bits)
        path = run_path(machine, _tape(machine, input_string, bits), budget)
        halted = path[-1][0] == machine.halt
        if expected and not halted:
            raise EvaluatorError(f"evaluator fails to halt on satisfying {bits}")
        if not expected and halted:
            raise EvaluatorError(f"evaluator halts on unsatisfying {bits}")
        if halted:
            violation = run_violation(machine, path)  # run convention 3
            if violation:
                raise EvaluatorError(f"evaluator {violation} on {bits}")
            if len(path) != p:
                raise EvaluatorError(
                    f"evaluator takes {len(path) - 1} steps on {bits}, clock says {p - 1}"
                )
            heads = {head for _, head in path}
            if max(heads) > p - 2:
                raise EvaluatorError(f"head moves right of cell {p - 2} on {bits}")
            if not set(range(1, n + k + 2)) <= heads:
                raise EvaluatorError(f"evaluator does not scan all of its tape input on {bits}")
            halting.append(bits)

    blank_cell = _sym(markers, markers.unscanned(machine.blank))
    bit_cell = union_([_sym(markers, markers.unscanned(b)) for b in "01"])
    head.append(blank_cell)
    head.extend([bit_cell] * k)
    head.extend([blank_cell] * (p - n - k - 3))
    initial_row = concat(head)
    row_expr = union_([initial_row, transition_row_body(machine, markers)])
    col_expr = column_expression(machine, markers)
    col_square = squarify_col_expr(col_expr, machine)
    ell = len(markers.alphabet)
    return SatReductionArtifacts(
        formula=formula,
        machine=machine,
        input_string=input_string,
        p=p,
        markers=markers,
        row_expr=row_expr,
        col_expr=col_expr,
        col_expr_square=col_square,
        ell=ell,
        q=3 * ell * (p + 1) + 1,
        halting_assignments=tuple(halting),
    )


def _all_assignments(k: int):
    for x in range(1 << k):
        yield tuple((x >> (k - 1 - i)) & 1 for i in range(k))


def assignment_tableau(art: SatReductionArtifacts, assignment) -> Grid | None:
    """The padded p x p candidate grid for one assignment, or None if the
    evaluator diverges on it."""
    from ..turing import build_tableau

    trace = simulate(art.machine, _tape(art.machine, art.input_string, assignment),
                     _EVAL_BUDGET_FACTOR * art.p)
    if not trace.halted:
        return None
    return pad_right_with_blanks(build_tableau(trace), art.machine, art.p)


def ee_from_sat(art: SatReductionArtifacts) -> tuple[Regex, int]:
    """One self-paired binary expression whose square solutions of side
    15(q+2)+1 exist iff the formula is satisfiable."""
    merged = merge_rc(art.row_expr_binary, art.col_expr_binary)
    expr = binarize_expr(5, merged)
    side = 15 * (art.q + 2) + 1
    return expr, side
