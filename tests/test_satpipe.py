"""The CNF evaluator machine and the counting reduction built on it."""

import pytest

from rxc.oracle import brute_force_sat_count
from rxc.puzzle import uniform_puzzle
from rxc.reductions import (
    EvaluatorError,
    assignment_tableau,
    ee_from_sat,
    encode_formula,
    evaluator_clock,
    sat_evaluator,
    sat_reduce,
)
from rxc.rex import is_positive
from rxc.solver import is_plural, verify
from rxc.turing import TuringMachine, simulate, validate_assumptions

from util import formula


def test_encode_formula_blocks():
    f = formula(3, (1, -2), (3,))
    assert encode_formula(f) == "10#" + "##1"
    with pytest.raises(EvaluatorError):
        encode_formula(formula(1, (1, -1)))


def test_evaluator_halts_exactly_on_satisfying():
    f = formula(2, (1, 2), (-1, 2))
    machine, w, p = sat_evaluator(f)
    report = validate_assumptions(machine, w, 5 * p)
    assert report.statuses[1] == "pass"
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        tape = list(w) + ["B"] + [str(b) for b in bits]
        trace = simulate(machine, tape, 5 * p)
        assert trace.halted == f.satisfied_by(bits)
        if trace.halted:
            assert trace.steps == p - 1


def test_clock_is_assignment_independent():
    f = formula(3, (1, 2, 3), (-1, 2, -3))
    machine, w, p = sat_evaluator(f)
    steps = set()
    for x in range(8):
        bits = tuple((x >> (2 - i)) & 1 for i in range(3))
        if not f.satisfied_by(bits):
            continue
        trace = simulate(machine, list(w) + ["B"] + [str(b) for b in bits], 5 * p)
        assert trace.halted
        steps.add(trace.steps)
    assert steps == {p - 1}
    assert p == evaluator_clock(f)
    assert p >= 2 * len(w) + 3


def test_sat_reduce_counts_match_oracle():
    suite = [
        formula(1, (1,)),
        formula(1, (-1,)),
        formula(2, (1, 2)),
        formula(2, (1,), (-1,)),
        formula(3, (1, 2, 3)),
    ]
    for f in suite:
        art = sat_reduce(f)
        puzzle = uniform_puzzle(art.row_expr, art.col_expr_square)
        valid = 0
        for x in range(1 << f.var_count):
            bits = tuple((x >> (f.var_count - 1 - i)) & 1 for i in range(f.var_count))
            grid = assignment_tableau(art, bits)
            if grid is None:
                continue
            assert (grid.m, grid.n) == (art.p, art.p)
            assert verify(puzzle, grid)
            valid += 1
        assert valid == brute_force_sat_count(f)
        assert valid == len(art.halting_assignments)


def test_solver_counts_directly_at_tableau_dimensions():
    from rxc.solver import count_grids

    art = sat_reduce(formula(1, (1,)))
    puzzle = uniform_puzzle(art.row_expr, art.col_expr_square)
    assert count_grids(puzzle, art.p, art.p) == 1
    art2 = sat_reduce(formula(2, (1, 2)))
    puzzle2 = uniform_puzzle(art2.row_expr, art2.col_expr_square)
    assert count_grids(puzzle2, art2.p, art2.p) == brute_force_sat_count(art2.formula)


def test_reduce_rejects_wrong_clock():
    f = formula(1, (1,))
    machine, w, p = sat_evaluator(f)
    with pytest.raises(EvaluatorError):
        sat_reduce(f, machine=machine, input_string=w, p=p + 3)


def test_reduce_refuses_an_evaluator_that_re_enters_the_start_state():
    # Same clock and the same halting set as the evaluator of x1, but the
    # run returns to q0 at step 3.  No marker carries a transmission into
    # the start state, so its puzzle would have no grid where #SAT is 1.
    f = formula(1, (1,))
    machine, w, p = sat_evaluator(f)
    rules = dict(machine.rules)
    rules[("q2", "B")] = ("q0", "B", "R")
    for c in machine.tape_symbols:
        if c != machine.blank:
            rules[("q0", c)] = ("walk", c, "R")
    bad = TuringMachine(machine.states, machine.tape_symbols, machine.blank,
                        machine.start, machine.halt, rules)
    with pytest.raises(EvaluatorError, match=r"^evaluator re-enters the start state at step 3 on \(1,\)$"):
        sat_reduce(f, machine=bad, input_string=w, p=p)


def test_artifact_shape():
    f = formula(1, (1,))
    art = sat_reduce(f)
    assert art.ell == len(art.markers.alphabet)
    assert art.q == 3 * art.ell * (art.p + 1) + 1
    assert is_positive(art.row_expr)
    assert is_positive(art.col_expr_square)


def test_binary_level_pair_is_plural():
    f = formula(1, (1,))
    art = sat_reduce(f)
    assert is_plural(art.row_expr_binary, art.col_expr_binary)


def test_ee_from_sat_side_and_positivity():
    f = formula(1, (1,))
    art = sat_reduce(f)
    expr, side = ee_from_sat(art)
    assert side == 15 * (art.q + 2) + 1
    assert is_positive(expr)


def test_unsat_formula_has_no_tableau():
    f = formula(1, (1,), (-1,))
    art = sat_reduce(f)
    assert art.halting_assignments == ()
    assert assignment_tableau(art, (0,)) is None
    assert assignment_tableau(art, (1,)) is None
    # a sibling formula's grid does not satisfy this formula's puzzle
    sat_art = sat_reduce(formula(1, (1,)))
    other = assignment_tableau(sat_art, (1,))
    assert other is not None
    if other.n == art.p and other.alphabet.tokens == art.markers.alphabet.tokens:
        assert not verify(uniform_puzzle(art.row_expr, art.col_expr_square), other)
