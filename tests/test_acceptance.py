"""Acceptance suite: one test per criterion, one printed line each.

Every check is exact (no tolerances are loosened anywhere); the printed
line carries the instance counts and the wall time.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time

from rxc.machines import (
    bouncing_machine,
    demo_machine,
    overwriting_machine,
    zigzag_machine,
)
from rxc.markers import marker_alphabet
from rxc.nfa import compile_regex
from rxc.oracle import (
    CnfFormula,
    GraphInstance,
    brute_force_crosswords,
    brute_force_sat_count,
    brute_force_vertex_cover,
)
from rxc.puzzle import Puzzle, uniform_puzzle
from rxc.reductions import (
    assignment_tableau,
    binarize_expr,
    binarized_matches,
    column_expression,
    member_fn,
    merge_rc,
    pad_right_with_blanks,
    psi_decode,
    psi_encode,
    rho_decode,
    rho_encode,
    row_expression,
    sat_reduce,
    squarify_col_expr,
    threesat_reduce,
    vc_reduce,
)
from rxc.rex import Alphabet, is_positive, parse, regex_matches
from rxc.solver import (
    count_grids,
    decide_unbounded_width,
    enumerate_grids,
    is_plural,
    is_unique,
    solve,
    verify,
)
from rxc.turing import build_tableau, simulate, validate_assumptions

from util import AB, all_words, formula, random_puzzle, random_regex


def _report(number: int, name: str, detail: str, started: float) -> None:
    print(f"criterion {number:02d} {name}: PASS ({detail}, {time.time() - started:.1f}s)")


def test_c01_solver_matches_oracle():
    started = time.time()
    rng = random.Random(101)
    for _ in range(500):
        p = random_puzzle(rng, max_symbols=3, depth=4)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        fast = enumerate_grids(p, m, n)
        slow = brute_force_crosswords(p, m, n)
        assert [g.cells for g in fast] == [g.cells for g in slow]
        assert count_grids(p, m, n) == len(slow)
    _report(1, "solver equals brute-force oracle", "500 random puzzles", started)


def test_c02_halting_tableau_unique():
    started = time.time()
    cases = [
        (demo_machine(), "a", (6, 4)),
        (overwriting_machine(), "ab", (8, 5)),
        (zigzag_machine(), "aa", (11, 5)),
    ]
    for machine, w, dims in cases:
        assert validate_assumptions(machine, w, 1000).all_pass
        trace = simulate(machine, w, 1000)
        assert trace.halted
        tableau = build_tableau(trace)
        assert (tableau.m, tableau.n) == dims
        mk = marker_alphabet(machine)
        puzzle = uniform_puzzle(row_expression(machine, w, mk), column_expression(machine, mk))
        assert verify(puzzle, tableau)
        sols = enumerate_grids(puzzle, tableau.m, tableau.n)
        assert [g.cells for g in sols] == [tableau.cells]
        assert is_unique(puzzle, tableau.m, tableau.n)
    _report(2, "halting tableaux verify and are unique", "3 machines", started)


def test_c03_nonhalting_machine_has_no_grid():
    started = time.time()
    machine = bouncing_machine()
    # never halts, but no run convention is ever violated
    report = validate_assumptions(machine, "a", 500)
    assert "fail" not in report.statuses
    mk = marker_alphabet(machine)
    row = row_expression(machine, "a", mk)
    col = column_expression(machine, mk)
    merged = merge_rc(row, col)
    for m in range(1, 13):
        assert not decide_unbounded_width([row] * m, col).exists
        assert not decide_unbounded_width([merged] * m, merged).exists
    _report(3, "non-halting machine yields no width", "row counts 1..12, (R,C) and (E,E)", started)


def test_c04_square_padding():
    started = time.time()
    machine = demo_machine()
    mk = marker_alphabet(machine)
    row = row_expression(machine, "a", mk)
    col = squarify_col_expr(column_expression(machine, mk), machine)
    tableau = build_tableau(simulate(machine, "a", 100))
    padded = pad_right_with_blanks(tableau, machine, tableau.m)
    assert padded.m == padded.n == 6
    assert verify(uniform_puzzle(row, col), padded)
    _report(4, "blank-padded square tableau verifies", "6x6", started)


def test_c05_merge_roundtrip():
    started = time.time()
    rng = random.Random(505)
    pairs = 0
    images = 0
    decoded = 0
    while pairs < 20:
        alpha = Alphabet(("0", "1", "2")[: rng.choice((2, 3))])
        r = random_regex(rng, alpha, depth=3, allow_intersection=False)
        c = random_regex(rng, alpha, depth=3, allow_intersection=False)
        if not is_plural(r, c):
            continue
        base = uniform_puzzle(r, c)
        originals = {(m, n): enumerate_grids(base, m, n) for m in (2, 3) for n in (2, 3)}
        if not any(originals.values()):
            continue
        pairs += 1
        merged_expr = merge_rc(r, c)
        merged = uniform_puzzle(merged_expr, merged_expr)
        for (m, n), grids in originals.items():
            for g in grids:
                assert verify(merged, rho_encode(g))
                images += 1
            for y in enumerate_grids(merged, m + 1, n + 1):
                inner, _flipped = rho_decode(y)
                pool = originals.get((inner.m, inner.n))
                if pool is None:
                    pool = enumerate_grids(base, inner.m, inner.n)
                assert inner.cells in {g.cells for g in pool}
                decoded += 1
    _report(5, "merge images verify and solutions decode",
            f"20 plural pairs, {images} images, {decoded} decoded", started)


def test_c06_binary_codec():
    started = time.time()
    pairs = [
        ("0", "0", (1, 1)),
        ("1", "1", (1, 1)),
        ("0|1", "0|1", (1, 1)),
        ("0|1", "0", (1, 1)),
        ("1", "0|1", (1, 1)),
        ("0|1", "1", (1, 1)),
        ("0", "00", (2, 1)),
        ("0|1", "01", (2, 1)),
        ("0|1", "(0|1)(0|1)", (2, 1)),
        ("1", "11", (2, 1)),
    ]
    for t_text, u_text, (m, n) in pairs:
        t, u = parse(t_text, AB), parse(u_text, AB)
        base = uniform_puzzle(t, u)
        originals = enumerate_grids(base, m, n)
        assert originals, (t_text, u_text)
        encoded = uniform_puzzle(binarize_expr(2, t), binarize_expr(2, u))
        for g in originals:
            image = psi_encode(2, g)
            assert verify(encoded, image)                       # (a)
            assert psi_decode(2, image, AB).cells == g.cells    # (b)

    # (c) count preservation: full enumeration at the encoded dimensions
    checked = []
    for t_text, u_text, (m, n) in (("0|1", "0|1", (1, 1)), ("0|1", "(0|1)(0|1)", (2, 1))):
        t, u = parse(t_text, AB), parse(u_text, AB)
        base = uniform_puzzle(t, u)
        encoded = uniform_puzzle(binarize_expr(2, t), binarize_expr(2, u))
        em, en = 6 * (m + 1) + 1, 6 * (n + 1) + 1
        found = enumerate_grids(encoded, em, en)
        expected = {psi_encode(2, g).cells for g in enumerate_grids(base, m, n)}
        assert {y.cells for y in found} == expected
        for y in found:
            psi_decode(2, y, AB)  # no claim violations
        checked.append(f"{em}x{en}:{len(found)}")
    _report(6, "binary codec preserves solutions and counts",
            "10 pairs; enumerations " + ", ".join(checked), started)


_SAT_SUITE = [
    formula(1, (1,)),
    formula(1, (-1,)),
    formula(2, (1, 2)),
    formula(2, (1,), (-1,)),
    formula(2, (1, -2), (2,)),
    formula(3, (1, 2, 3)),
    formula(3, *[
        tuple((v + 1) * (1 if (bits >> v) & 1 else -1) for v in range(3))
        for bits in range(8)
    ]),
    formula(3, (1, 2), (-1, 3), (-2, -3)),
    formula(3, (1, 2, -3), (-1,), (2, 3)),
    formula(2, (-1, 2), (1, -2)),
]


def test_c07_sat_counts_at_marker_level():
    started = time.time()
    tableaux = 0
    for f in _SAT_SUITE:
        art = sat_reduce(f)  # validates the exact clock on every assignment
        puzzle = uniform_puzzle(art.row_expr, art.col_expr_square)
        valid = 0
        clocks = set()
        for x in range(1 << f.var_count):
            bits = tuple((x >> (f.var_count - 1 - i)) & 1 for i in range(f.var_count))
            tape = list(art.input_string) + [art.machine.blank] + [str(b) for b in bits]
            trace = simulate(art.machine, tape, 3 * art.p)
            assert trace.halted == f.satisfied_by(bits)
            if trace.halted:
                clocks.add(trace.steps)
            grid = assignment_tableau(art, bits)
            if grid is None:
                assert not f.satisfied_by(bits)
                continue
            assert (grid.m, grid.n) == (art.p, art.p)
            assert verify(puzzle, grid)
            valid += 1
            tableaux += 1
        assert clocks <= {art.p - 1}  # identical step count on every halting run
        assert valid == brute_force_sat_count(f)

    # binary level: the encoded tableau of one satisfying assignment
    art = sat_reduce(_SAT_SUITE[0])
    grid = assignment_tableau(art, (1,))
    image = psi_encode(art.ell, grid)
    assert (image.m, image.n) == (art.q, art.q)
    row_member = member_fn(compile_regex(art.row_expr))
    col_member = member_fn(compile_regex(art.col_expr_square))
    assert all(binarized_matches(art.ell, "".join(image.row_tokens(i)), row_member)
               for i in range(image.m))
    assert all(binarized_matches(art.ell, "".join(image.col_tokens(j)), col_member)
               for j in range(image.n))
    _report(7, "assignment tableau count equals #SAT",
            f"10 formulas, {tableaux} tableaux; binary side q={art.q}", started)


def _graph_suite() -> list[GraphInstance]:
    rng = random.Random(808)
    graphs = [
        GraphInstance(2, ((1, 2),), 1),
        GraphInstance(3, ((1, 2), (2, 3), (1, 3)), 1),
        GraphInstance(4, ((1, 2), (2, 3), (3, 4)), 1),
        GraphInstance(5, ((1, 2), (1, 3), (1, 4), (1, 5)), 1),
        GraphInstance(4, tuple(itertools.combinations(range(1, 5), 2)), 1),
        GraphInstance(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)), 1),
    ]
    while len(graphs) < 30:
        v = rng.randint(2, 6)
        possible = list(itertools.combinations(range(1, v + 1), 2))
        rng.shuffle(possible)
        edges = tuple(sorted(possible[: rng.randint(1, min(len(possible), 9))]))
        graphs.append(GraphInstance(v, edges, 1))
    return graphs


def test_c08_appendix_reductions():
    started = time.time()
    vc_checks = 0
    for g in _graph_suite():
        for k in range(1, g.vertex_count + 1):
            inst = GraphInstance(g.vertex_count, g.edges, k)
            puzzle = vc_reduce(inst)
            found = solve(puzzle, inst.vertex_count, len(inst.edges) + 1)
            assert (found is not None) == brute_force_vertex_cover(inst)
            if found is not None:
                assert verify(puzzle, found)
            vc_checks += 1

    rng = random.Random(33)
    formulas = []
    clauses_3 = [
        tuple((v + 1) * (1 if (bits >> v) & 1 else -1) for v in range(3))
        for bits in range(8)
    ]
    formulas.append(CnfFormula(3, tuple(tuple(sorted(c, key=abs)) for c in clauses_3)))
    while len(formulas) < 20:
        n = rng.randint(3, 4)
        m = rng.randint(1, 6)
        clauses = []
        for _ in range(m):
            vs = sorted(rng.sample(range(1, n + 1), 3))
            clauses.append(tuple(v * rng.choice((1, -1)) for v in vs))
        formulas.append(CnfFormula(n, tuple(clauses)))
    for f in formulas:
        puzzle = threesat_reduce(f)
        found = solve(puzzle, len(f.clauses), f.var_count)
        assert (found is not None) == (brute_force_sat_count(f) > 0)
        if found is not None:
            assert verify(puzzle, found)
    _report(8, "appendix reductions agree with oracles",
            f"{vc_checks} cover instances, 20 formulas", started)


def _long_single_line_witness(r, c):
    """A single-line solution found by the automata and confirmed by the
    reference matcher, or None."""
    for line, cross in ((r, c), (c, r)):
        singles = [s for s in AB.symbols if regex_matches(cross, (s,))]
        if not singles:
            continue
        auto = compile_regex(line)
        start = auto.start_set()
        seen = {start}
        frontier = [(start, ())]
        for _ in range(64):
            grown = []
            for states, path in frontier:
                for s in singles:
                    nxt = auto.step(states, s.id)
                    if auto.is_dead(nxt) or nxt in seen:
                        continue
                    word = path + (s,)
                    if auto.accepts(nxt) and regex_matches(line, word):
                        return word
                    seen.add(nxt)
                    grown.append((nxt, word))
            frontier = grown
    return None


def test_c09_plurality_and_positivity():
    started = time.time()

    def brute_positive(r):
        return not regex_matches(r, ())

    def bounded_plural(r, c):
        """The definitional check with single lines scanned up to length 6."""
        if not brute_positive(r) or not brute_positive(c):
            return False
        for n in range(1, 7):
            for w in all_words(AB, n):
                if regex_matches(r, w) and all(regex_matches(c, (s,)) for s in w):
                    return False
                if regex_matches(c, w) and all(regex_matches(r, (s,)) for s in w):
                    return False
        return True

    rng = random.Random(909)
    checked = 0
    while checked < 200:
        r = random_regex(rng, AB, depth=4)
        c = random_regex(rng, AB, depth=4)
        assert is_positive(r) == brute_positive(r)
        assert is_positive(c) == brute_positive(c)
        mine = is_plural(r, c)
        bounded = bounded_plural(r, c)
        if mine != bounded:
            # Only admissible divergence: a single-line solution that is
            # longer than the scan bound.  Confirm one, then resample.
            assert bounded and not mine
            witness = _long_single_line_witness(r, c)
            assert witness is not None and len(witness) > 6
            continue
        checked += 1
    _report(9, "plurality and positivity match definitions", "200 pairs", started)


def test_c10_width_decider_vs_bounded_search():
    started = time.time()
    rng = random.Random(111)
    checked = 0
    while checked < 100:
        m = rng.randint(1, 3)
        rows = [random_regex(rng, AB, depth=3) for _ in range(m)]
        col = random_regex(rng, AB, depth=3)
        result = decide_unbounded_width(rows, col)
        puzzle = Puzzle(AB, tuple(rows), col)
        if result.exists and result.width > 8:
            continue  # outside the bounded search's reach
        bounded = [n for n in range(1, 9) if solve(puzzle, m, n) is not None]
        if result.exists:
            assert bounded and bounded[0] == result.width
            assert verify(puzzle, result.grid)
        else:
            assert not bounded
        checked += 1

    negatives = [
        (["0+"], "1+"),
        (["01", "10"], "00|11"),
        (["0+&1+"], "0|1"),
        (["(01)+"], "0+"),
        (["0*1&0+"], "0+"),
        (["00+"], "1*"),
        (["1", "0"], "00|11"),
        (["(0|1)1"], "0+"),
        (["11+"], "(00)+"),
        (["101"], "11|00"),
    ]
    for row_texts, col_text in negatives:
        rows = [parse(t, AB) for t in row_texts]
        assert not decide_unbounded_width(rows, parse(col_text, AB)).exists
    _report(10, "width decider agrees with bounded search",
            "100 random + 10 engineered negatives", started)


def _least_rows(row, col):
    """The least row count m with a width, and the decision at m."""
    m = 1
    while True:
        result = decide_unbounded_width([row] * m, col)
        if result.exists:
            return m, result
        m += 1


def test_c11_least_row_counts_give_the_tableau():
    # Paper results 3 and 4: raise the row count m from 1.  For (R,C) the
    # least m with a width is the tableau's row count and the witness is
    # the tableau; for the merged E = merge_rc(R, C) as both row and
    # column it is min(rows, cols) + 1, and the witness is the framed
    # tableau, transposed.
    started = time.time()
    cases = [
        (demo_machine(), "a", (6, 4), (5, 7)),
        (demo_machine(), "aa", (7, 5), (6, 8)),
        (overwriting_machine(), "ab", (8, 5), (6, 9)),
        (zigzag_machine(), "a", (9, 4), (5, 10)),
    ]
    for machine, w, rc, ee in cases:
        tableau = build_tableau(simulate(machine, w, 1000))
        assert (tableau.m, tableau.n) == rc
        assert min(rc) + 1 == ee[0]
        mk = marker_alphabet(machine)
        row, col = row_expression(machine, w, mk), column_expression(machine, mk)
        m, result = _least_rows(row, col)
        assert (m, result.width) == rc
        assert result.grid.cells == tableau.cells
        merged = merge_rc(row, col)
        m, result = _least_rows(merged, merged)
        assert (m, result.width) == ee
        assert result.grid.cells == rho_encode(tableau).transpose().cells
        inner, flipped = rho_decode(result.grid)
        assert flipped and inner.cells == tableau.cells
    _report(11, "least row counts give the tableau, (R,C) and (E,E)", "4 halting runs", started)


def test_c12_merged_sat_pair_counts_twice_sat():
    # Paper result 2 on the SAT chain at marker level: SAT -> (R, C) ->
    # E = merge_rc(R, C) as both row and column.  Every p x p assignment
    # tableau is framed into a (p + 1) x (p + 1) grid once as is and once
    # transposed, so the (E,E) count is 2 x #SAT and each grid decodes to
    # an assignment tableau.  Single-clause formulas only: the solver
    # does not yet finish the multi-clause ones at this size.
    started = time.time()
    grids = 0
    for f in (formula(1, (1,)), formula(1, (-1,)), formula(2, (1, 2)), formula(3, (1, 2, 3))):
        art = sat_reduce(f)
        merged = merge_rc(art.row_expr, art.col_expr_square)
        found = enumerate_grids(uniform_puzzle(merged, merged), art.p + 1, art.p + 1)
        assert len(found) == 2 * brute_force_sat_count(f)
        decoded = sorted((inner.cells, flipped) for inner, flipped in map(rho_decode, found))
        tableaux = [assignment_tableau(art, bits).cells for bits in art.halting_assignments]
        assert decoded == sorted((t, flipped) for t in tableaux for flipped in (False, True))
        grids += len(found)
    _report(12, "merged SAT pair counts 2 x #SAT, decoding to tableaux",
            f"4 single-clause formulas, {grids} grids", started)
