"""Grid solver: verification, enumeration, counting, plurality, width."""

import random
import sys

import pytest

from rxc.grids import Grid
from rxc.machines import demo_machine
from rxc.markers import marker_alphabet
from rxc.nfa import Nfa, ViableSymbols
from rxc.oracle import brute_force_crosswords
from rxc.puzzle import Puzzle, uniform_puzzle
from rxc import solver
from rxc.reductions import column_expression, merge_rc, row_expression
from rxc.rex import Alphabet, is_positive, parse, regex_matches, union_, word
from rxc.solver import (
    DimensionError,
    count_grids,
    decide_unbounded_width,
    enumerate_grids,
    is_plural,
    is_unique,
    solve,
    verify,
)

from util import AB, all_words, random_puzzle, random_regex, record_steps, record_supports


def test_verify_uniform_zeroes():
    p = uniform_puzzle(parse("0+", AB), parse("0+", AB))
    g = Grid.from_strings(AB, ["00", "00"])
    assert verify(p, g)
    bad = Grid.from_strings(AB, ["00", "01"])
    assert not verify(p, bad)


def test_verify_dimension_mismatch():
    p = uniform_puzzle(parse("0+", AB), parse("0+", AB), fixed_rows=2, fixed_cols=2)
    with pytest.raises(DimensionError):
        verify(p, Grid.from_strings(AB, ["0"]))


def test_search_refuses_other_dimensions_than_the_fixed_ones():
    p = uniform_puzzle(parse("0+", AB), parse("0+", AB), fixed_rows=2, fixed_cols=2)
    assert count_grids(p, 2, 2) == 1
    for search in (solve, count_grids, is_unique, enumerate_grids):
        with pytest.raises(DimensionError, match="asked for 3 rows, puzzle fixes 2"):
            search(p, 3, 2)
        with pytest.raises(DimensionError, match="asked for 1 columns, puzzle fixes 2"):
            search(p, 2, 1)


def test_solve_forced_and_least():
    p = uniform_puzzle(parse("0+", AB), parse("0+", AB))
    assert solve(p, 2, 2).cells == ((0, 0), (0, 0))
    p2 = uniform_puzzle(parse("01|10", AB), parse("01|10", AB))
    assert solve(p2, 2, 2).cells == ((0, 1), (1, 0))
    p3 = uniform_puzzle(parse("00", AB), parse("00", AB))
    assert solve(p3, 1, 1) is None


def test_large_grid_leaves_recursion_limit_alone(monkeypatch):
    # 1,600 cells, more than the default recursion limit of 1,000
    def refuse(_limit):
        raise AssertionError("the solver changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    zeros = parse("0*", Alphabet(("0",)))
    p = uniform_puzzle(zeros, zeros)
    assert solve(p, 40, 40).cells == ((0,) * 40,) * 40
    assert count_grids(p, 40, 40) == 1


def test_search_steps_each_line_key_once(monkeypatch):
    # Every row and column of (0|1)* reaches the same state sets, so the
    # cell search needs one step per (state set, cells left, symbol) and
    # not one per cell visit: 4,096 solutions at 3 x 4.
    calls = []
    real_step = Nfa.step

    def counting_step(self, states, sym_id):
        calls.append(sym_id)
        return real_step(self, states, sym_id)

    monkeypatch.setattr(Nfa, "step", counting_step)
    any_word = parse("(0|1)*", AB)
    m, n = 3, 4
    assert count_grids(uniform_puzzle(any_word, any_word), m, n) == 2 ** (m * n)
    assert len(calls) <= 2 * len(AB) * (m + n + 2)


def test_search_steps_each_state_set_once(monkeypatch):
    # The entries of one state set share its successors, so a set is
    # stepped on a symbol once per search, whatever the cells left on
    # its line: at most |alphabet| steps per distinct set.  Rows and
    # columns are parsed apart, so each has its own automaton and table.
    calls = record_steps(monkeypatch)
    m, n = 3, 4
    puzzle = uniform_puzzle(parse("(0|1)*", AB), parse("(0|1)*", AB))
    assert count_grids(puzzle, m, n) == 2 ** (m * n)
    assert len(calls) == len(set(calls)) == 4
    assert len(calls) <= len(AB) * len({(auto, states) for auto, states, _ in calls})


def test_search_follows_links_between_cells(monkeypatch):
    # A cell reaches its row and column table entries through the links of
    # its left and upper neighbours; a keyed (state set, cells left)
    # lookup runs only for the roots and once per new link, not per cell
    # entered: 4,096 solutions at 3 x 4.
    lookups = []

    class CountingDict(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            lookups.append(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            lookups.append(key)
            return super().__contains__(key)

    real_init = ViableSymbols.__init__

    def counting_init(self, auto):
        real_init(self, auto)
        self._entries = CountingDict()

    monkeypatch.setattr(ViableSymbols, "__init__", counting_init)
    any_word = parse("(0|1)*", AB)
    m, n = 3, 4
    assert count_grids(uniform_puzzle(any_word, any_word), m, n) == 2 ** (m * n)
    assert 0 < len(lookups) <= 2 * len(AB) * (m + n + 2)


def _word_union(rng, alphabet, length):
    words = {"".join(rng.choice(alphabet.tokens) for _ in range(length))
             for _ in range(rng.randint(2, 5))}
    return parse("|".join(sorted(words)), alphabet)


def test_propagating_search_matches_oracle(monkeypatch):
    # Per-line unions of a few words: a completed row often leaves the
    # rows below no grid, so about half the searches meet a dead row and
    # go on propagating at row boundaries.  Every verb agrees with brute
    # force, in order.
    calls = record_supports(monkeypatch)
    rng = random.Random(16)
    armed = 0
    for _ in range(200):
        alphabet = Alphabet(tuple("012"[:rng.choice((2, 2, 3))]))
        m, n = rng.randint(2, 4), rng.randint(2, 4 if len(alphabet) == 2 else 3)
        p = Puzzle(alphabet, tuple(_word_union(rng, alphabet, n) for _ in range(m)),
                   tuple(_word_union(rng, alphabet, m) for _ in range(n)))
        want = [g.cells for g in brute_force_crosswords(p, m, n)]
        calls.clear()
        assert [g.cells for g in enumerate_grids(p, m, n)] == want
        armed += bool(calls)
        assert count_grids(p, m, n) == len(want)
        assert is_unique(p, m, n) == (len(want) == 1)
        first = solve(p, m, n)
        assert (first.cells if first else None) == (want[0] if want else None)
    assert armed >= 50


def test_forward_checking_searches_never_propagate(monkeypatch):
    # Every completed row of these leaves a grid below it, so no search
    # meets a dead row and none walks a line's supports.
    calls = record_supports(monkeypatch)
    any_word = parse("(0|1)*", AB)
    assert count_grids(uniform_puzzle(any_word, any_word), 3, 4) == 2 ** 12
    ordered = parse("0*1*", AB)
    assert count_grids(uniform_puzzle(ordered, ordered), 7, 7) == 3432
    machine = demo_machine()
    mk = marker_alphabet(machine)
    row, col = row_expression(machine, "a", mk), column_expression(machine, mk)
    assert solve(uniform_puzzle(row, col), 6, 4) is not None
    assert decide_unbounded_width([row] * 6, col).width == 4
    assert calls == []


def test_search_steps_only_readable_symbols(monkeypatch):
    # The demo tableau has 36 marker symbols, and most state sets can
    # read only a few of them; a step on any other symbol is dead.
    calls = []
    real_step = Nfa.step

    def checking_step(self, states, sym_id):
        readers = {s for s, a, _ in self.labeled_edges if a == sym_id}
        calls.append(any(states >> s & 1 for s in readers))
        return real_step(self, states, sym_id)

    monkeypatch.setattr(Nfa, "step", checking_step)
    machine = demo_machine()
    mk = marker_alphabet(machine)
    row, col = row_expression(machine, "a", mk), column_expression(machine, mk)
    assert len(mk.alphabet) == 36
    assert solve(uniform_puzzle(row, col), 6, 4) is not None
    assert calls and all(calls)
    calls.clear()
    assert decide_unbounded_width([row] * 6, col).width == 4
    assert calls and all(calls)


def test_enumerate_examples():
    p = uniform_puzzle(parse("01|10", AB), parse("01|10", AB))
    assert len(enumerate_grids(p, 2, 2)) == 2
    p2 = uniform_puzzle(parse("(0|1)(0|1)", AB), parse("0*|1*", AB))
    got = enumerate_grids(p2, 2, 2)
    assert len(got) == 4
    assert all(g.col_tokens(j)[0] == g.col_tokens(j)[1] for g in got for j in range(2))
    p3 = uniform_puzzle(parse("0&1", AB), parse("0&1", AB))
    assert enumerate_grids(p3, 2, 2) == []


def test_enumerate_cap_truncates():
    p = uniform_puzzle(parse("(0|1)+", AB), parse("(0|1)+", AB))
    full = enumerate_grids(p, 2, 2)
    assert len(full) == 16
    assert enumerate_grids(p, 2, 2, cap=5) == full[:5]


def test_count_and_unique():
    p = uniform_puzzle(parse("01|10", AB), parse("01|10", AB))
    assert count_grids(p, 2, 2) == 2
    assert not is_unique(p, 2, 2)
    p2 = uniform_puzzle(parse("0+", AB), parse("0+", AB))
    assert count_grids(p2, 3, 3) == 1
    assert is_unique(p2, 2, 2)
    p3 = uniform_puzzle(parse("0&1", AB), parse("0&1", AB))
    assert not is_unique(p3, 2, 2)


def test_solver_matches_oracle_on_random_puzzles():
    rng = random.Random(1234)
    for _ in range(150):
        p = random_puzzle(rng)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        fast = enumerate_grids(p, m, n)
        slow = brute_force_crosswords(p, m, n)
        assert [g.cells for g in fast] == [g.cells for g in slow]
        assert count_grids(p, m, n) == len(slow)
        assert (solve(p, m, n) is not None) == (len(slow) >= 1)
        assert is_unique(p, m, n) == (len(slow) == 1)
        for g in fast:
            assert verify(p, g)


def test_transpose_duality():
    rng = random.Random(77)
    for _ in range(60):
        r = random_regex(rng, AB, depth=3)
        c = random_regex(rng, AB, depth=3)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = count_grids(uniform_puzzle(r, c), m, n)
        b = count_grids(uniform_puzzle(c, r), n, m)
        assert a == b


def test_per_row_lists():
    rows = (parse("0+", AB), parse("1+", AB))
    cols = (parse("01", AB), parse("01", AB))
    p = Puzzle(AB, rows, cols, 2, 2)
    assert solve(p, 2, 2).cells == ((0, 0), (1, 1))


def test_plural_examples():
    assert is_plural(parse("00", AB), parse("00", AB))
    assert not is_plural(parse("0+", AB), parse("0+", AB))
    assert not is_plural(parse("0*", AB), parse("00", AB))  # not positive
    # One-sided: the 2 x 1 grid of 0s is only an n x 1 solution, found by
    # the column check; its transpose only by the row check.
    assert not is_plural(parse("0", AB), parse("00", AB))
    assert not is_plural(parse("00", AB), parse("0", AB))
    # Each line matches a single symbol, but not one the other line does.
    assert is_plural(parse("0", AB), parse("1", AB))


def _brute_plural(r, c, bound=6):
    if not is_positive(r) or not is_positive(c):
        return False
    for n in range(1, bound + 1):
        for w in all_words(AB, n):
            if regex_matches(r, w) and all(regex_matches(c, (s,)) for s in w):
                return False
    for m in range(1, bound + 1):
        for w in all_words(AB, m):
            if regex_matches(c, w) and all(regex_matches(r, (s,)) for s in w):
                return False
    return True


def test_plural_against_definition():
    rng = random.Random(4321)
    checked = 0
    while checked < 120:
        r = random_regex(rng, AB, depth=4)
        c = random_regex(rng, AB, depth=4)
        # Keep only instances the bounded definitional check can settle:
        # if a single-line solution exists, one must exist within the bound.
        if is_plural(r, c) != _brute_plural(r, c):
            shortest = _shortest_single_line(r, c)
            assert shortest is not None and shortest > 6
            continue
        checked += 1


def _shortest_single_line(r, c, limit=12):
    for n in range(1, limit + 1):
        for w in all_words(AB, n):
            if regex_matches(r, w) and all(regex_matches(c, (s,)) for s in w):
                return n
            if regex_matches(c, w) and all(regex_matches(r, (s,)) for s in w):
                return n
    return None


def test_decide_width_single_column():
    res = decide_unbounded_width([parse("0*1", AB), parse("1*", AB)],
                                 parse("(0|1)(0|1)", AB))
    assert res.exists and res.width == 1
    assert res.grid.cells == ((1,), (1,))


def test_decide_width_negative():
    res = decide_unbounded_width([parse("01", AB), parse("10", AB)],
                                 parse("00|11", AB))
    assert not res.exists
    for m in range(1, 5):
        p = Puzzle(AB, (parse("01", AB), parse("10", AB)), parse("00|11", AB))
        assert solve(p, 2, m) is None


def test_decide_width_compiles_a_shared_row_and_column_once(monkeypatch):
    # The (E, E) form of the merged demo tableau: E is every row and the
    # column, so one automaton and one table serve both.
    m = demo_machine()
    mk = marker_alphabet(m)
    e = merge_rc(row_expression(m, "a", mk), column_expression(m, mk))
    calls = []
    real = solver.compile_regex

    def counting(r):
        calls.append(r)
        return real(r)

    monkeypatch.setattr(solver, "compile_regex", counting)
    res = decide_unbounded_width([e] * 5, e)
    assert res.exists and res.width == 7
    assert len(calls) == 1


def test_decide_width_refuses_mixed_alphabets():
    # Not "no width": the rows and the column read different symbols.
    abc = Alphabet(("a", "b", "c"))
    with pytest.raises(DimensionError, match="different alphabets"):
        decide_unbounded_width([parse("0*", AB)], parse("b*", abc))
    with pytest.raises(DimensionError, match="different alphabets"):
        decide_unbounded_width([parse("0*", AB), parse("a*", abc)], parse("0*", AB))


def test_decide_width_agrees_with_bounded_search():
    rng = random.Random(555)
    for _ in range(60):
        m = rng.randint(1, 3)
        rows = [random_regex(rng, AB, depth=3) for _ in range(m)]
        col = random_regex(rng, AB, depth=3)
        res = decide_unbounded_width(rows, col)
        p = Puzzle(AB, tuple(rows), col)
        bounded = [n for n in range(1, 9) if solve(p, m, n) is not None]
        if res.exists and res.width <= 8:
            assert bounded and bounded[0] == res.width
            assert verify(p, res.grid)
        elif not res.exists:
            assert not bounded



def test_decide_width_witness_is_the_column_major_least_grid():
    # Against the oracle, which knows no automaton: the witness has the
    # least width with a grid, and of that width's grids it is the least
    # read column by column.  Each line is a random expression or the
    # line's words in two planted grids of at most 12 cells, so a width
    # exists, the oracle reaches it, and most widths have several grids.
    rng = random.Random(2024)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 12 // m)
        planted = [[[rng.choice(AB.tokens) for _ in range(n)] for _ in range(m)]
                   for _ in range(2)]
        rows = [union_([random_regex(rng, AB, depth=3)] + [word(AB, g[i]) for g in planted])
                for i in range(m)]
        col = union_([random_regex(rng, AB, depth=3)]
                     + [word(AB, w) for g in planted for w in zip(*g)])
        res = decide_unbounded_width(rows, col)
        assert res.exists and res.width <= n
        p = Puzzle(AB, tuple(rows), col)
        assert not any(brute_force_crosswords(p, m, n) for n in range(1, res.width))
        least = min(brute_force_crosswords(p, m, res.width), key=lambda g: tuple(zip(*g.cells)))
        assert res.grid.cells == least.cells
