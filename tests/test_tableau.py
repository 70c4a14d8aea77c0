"""Run-tableau expressions: marker alphabet, rows, columns, squaring."""

import pytest

from rxc.machines import bouncing_machine, demo_machine, overwriting_machine, zigzag_machine
from rxc.markers import marker_alphabet
from rxc.nfa import compile_regex, enumerate_language, matches
from rxc.puzzle import uniform_puzzle
from rxc.reductions import (
    AssumptionError,
    column_expression,
    initial_row_expr,
    pad_right_with_blanks,
    row_expression,
    squarify_col_expr,
    transition_row_body,
)
from rxc.rex import format_regex, is_positive, lit, plus, union_
from rxc.solver import enumerate_grids, is_plural, verify
from rxc.turing import TuringMachine, build_tableau, simulate

from util import flat_automaton, operand_tables, unpacked


def test_marker_alphabet_size_and_classes():
    mk = marker_alphabet(demo_machine())
    # 3 + 3*6 + 3*5 over tape {B,a,#} and six states
    assert len(mk.alphabet) == 36
    assert "[B,q0]" in mk.alphabet
    assert "<B|q0>" not in mk.alphabet
    tokens = set(mk.alphabet.tokens)
    assert len(tokens) == 36  # classes pairwise disjoint


def test_initial_row_expression():
    m = demo_machine()
    mk = marker_alphabet(m)
    r = initial_row_expr(m, "a", mk)
    assert format_regex(r) == "{<B|q1>}{[B,q0]}{[a]}{[B]}+"


def test_transition_pairs_present():
    m = demo_machine()
    mk = marker_alphabet(m)
    body = transition_row_body(m, mk)
    auto = compile_regex(body)
    # right-move rule (q2,B) -> (q3,B,R) yields the pair [B,q2]<B|q3>
    assert matches(auto, [mk.scanned("B", "q2"), mk.transmission("B", "q3")])
    # halting markers are rows on their own
    for a in m.tape_symbols:
        assert matches(auto, [mk.scanned(a, "qh")])
    # the pair for the initial transition is excluded
    assert not matches(auto, [mk.transmission("B", "q1"), mk.scanned("B", "q0")])


def test_row_expression_is_positive():
    m = demo_machine()
    assert is_positive(row_expression(m, "a"))


def test_column_expression_membership():
    m = demo_machine()
    mk = marker_alphabet(m)
    c = column_expression(m, mk)
    auto = compile_regex(c)
    # the cell-2 column of the run tableau
    assert matches(auto, [mk.unscanned("B")] * 3
                   + [mk.transmission("B", "q4"), mk.scanned("B", "q4"), mk.unscanned("B")])
    # a lone scanned start marker satisfies the static part but not the write part
    s_part, w_part = c.node.parts
    from rxc.rex import Regex

    assert matches(compile_regex(Regex(s_part, c.alphabet)), [mk.scanned("B", "q0")])
    assert not matches(auto, [mk.scanned("B", "q0")])
    # a wrong written symbol breaks the write part
    assert not matches(auto, [mk.unscanned("B"), mk.transmission("B", "q2"),
                              mk.scanned("B", "q2"), mk.unscanned("a")])
    assert is_positive(c)


def test_column_expression_is_input_independent():
    m = demo_machine()
    assert format_regex(column_expression(m)) == format_regex(column_expression(m))


def test_tableau_uniqueness_demo():
    m = demo_machine()
    mk = marker_alphabet(m)
    p = uniform_puzzle(row_expression(m, "a", mk), column_expression(m, mk))
    t = build_tableau(simulate(m, "a", 100))
    sols = enumerate_grids(p, 6, 4)
    assert [g.cells for g in sols] == [t.cells]


def test_corrupting_any_cell_breaks_verification():
    from rxc.grids import Grid

    m = demo_machine()
    mk = marker_alphabet(m)
    p = uniform_puzzle(row_expression(m, "a", mk), column_expression(m, mk))
    t = build_tableau(simulate(m, "a", 100))
    blank = mk.unscanned("B").id
    hash_mark = mk.unscanned("#").id
    for i in range(t.m):
        for j in range(t.n):
            cells = [list(row) for row in t.cells]
            cells[i][j] = blank if cells[i][j] != blank else hash_mark
            assert not verify(p, Grid(t.alphabet, tuple(tuple(r) for r in cells)))


def test_no_solution_at_other_sizes():
    m = demo_machine()
    mk = marker_alphabet(m)
    p = uniform_puzzle(row_expression(m, "a", mk), column_expression(m, mk))
    for dims in ((5, 4), (7, 4), (6, 3), (6, 5)):
        assert enumerate_grids(p, *dims) == []


def test_pair_is_plural():
    m = demo_machine()
    mk = marker_alphabet(m)
    assert is_plural(row_expression(m, "a", mk), column_expression(m, mk))


def test_squarified_padding_verifies():
    m = demo_machine()
    mk = marker_alphabet(m)
    row = row_expression(m, "a", mk)
    col = squarify_col_expr(column_expression(m, mk), m)
    t = build_tableau(simulate(m, "a", 100))
    padded = pad_right_with_blanks(t, m, 6)
    assert padded.m == padded.n == 6
    assert verify(uniform_puzzle(row, col), padded)
    assert is_positive(col)
    # all-blank columns of any length match the squarified expression
    auto = compile_regex(col)
    for k in range(1, 5):
        assert matches(auto, [mk.unscanned("B")] * k)


@pytest.mark.parametrize("make", [demo_machine, overwriting_machine, zigzag_machine,
                                  bouncing_machine])
def test_squarified_column_is_the_union_with_blank_columns(make):
    # The column is written (S | B) & (W | B); it must accept exactly
    # (S & W) | B, here compiled as one operand.
    m = make()
    mk = marker_alphabet(m)
    col = column_expression(m, mk)
    squared = squarify_col_expr(col, m)
    square = compile_regex(squared)
    assert len(square.ranges) == 2
    assert unpacked(square) == operand_tables(squared)
    union = flat_automaton(union_([col, plus(lit(mk.alphabet, "[B]"))]))
    assert enumerate_language(square, 6) == enumerate_language(union, 6)


def test_nonhalting_machine_has_no_grid_small_widths():
    m = bouncing_machine()
    mk = marker_alphabet(m)
    p = uniform_puzzle(row_expression(m, "a", mk), column_expression(m, mk))
    for rows in range(1, 5):
        for cols in range(1, 5):
            assert not enumerate_grids(p, rows, cols)


def test_rules_into_start_state_are_tolerated():
    # unreachable filler transitions may target the start state; they can
    # never occur in a legal run, so the expressions simply omit them
    m = demo_machine()
    rules = dict(m.rules)
    rules[("q3", "#")] = ("q0", "#", "R")
    odd = TuringMachine(m.states, m.tape_symbols, m.blank, m.start, m.halt, rules)
    mk = marker_alphabet(odd)
    p = uniform_puzzle(row_expression(odd, "a", mk), column_expression(odd, mk))
    t = build_tableau(simulate(odd, "a", 100))
    assert verify(p, t)
    assert [g.cells for g in enumerate_grids(p, 6, 4)] == [t.cells]


def test_assumption_error_for_bad_initial_rule():
    m = demo_machine()
    rules = dict(m.rules)
    rules[("q0", "B")] = ("q1", "B", "R")
    bad = TuringMachine(m.states, m.tape_symbols, m.blank, m.start, m.halt, rules)
    with pytest.raises(AssumptionError):
        row_expression(bad, "a")
