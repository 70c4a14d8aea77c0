"""Brute-force oracles and their file formats."""

import pytest

from rxc.oracle import (
    CapExceeded,
    GraphInstance,
    brute_force_crosswords,
    brute_force_sat_count,
    brute_force_vertex_cover,
    dump_dimacs,
    parse_dimacs,
    parse_graph,
)
from rxc.puzzle import uniform_puzzle
from rxc.rex import parse

from util import AB, formula, triangle


def test_crossword_oracle_examples():
    p = uniform_puzzle(parse("01|10", AB), parse("01|10", AB))
    assert len(brute_force_crosswords(p, 2, 2)) == 2
    p2 = uniform_puzzle(parse("0&1", AB), parse("0&1", AB))
    assert brute_force_crosswords(p2, 1, 1) == []
    p3 = uniform_puzzle(parse("0|1", AB), parse("0|1", AB))
    assert len(brute_force_crosswords(p3, 1, 1)) == 2


def test_crossword_oracle_cap():
    p = uniform_puzzle(parse("0+", AB), parse("0+", AB))
    with pytest.raises(CapExceeded):
        brute_force_crosswords(p, 5, 5, cap=2 ** 20)


def test_vertex_cover_examples():
    assert brute_force_vertex_cover(triangle(2))
    assert not brute_force_vertex_cover(triangle(1))
    assert brute_force_vertex_cover(GraphInstance(2, ((1, 2),), 1))


def test_graph_validation():
    with pytest.raises(ValueError):
        GraphInstance(2, ((1, 1),), 1)
    with pytest.raises(ValueError):
        GraphInstance(2, ((1, 3),), 1)


def test_sat_count_examples():
    assert brute_force_sat_count(formula(1, (1,))) == 1
    all_signs = formula(3, *[
        tuple((v + 1) * (1 if (bits >> v) & 1 else -1) for v in range(3))
        for bits in range(8)
    ])
    assert brute_force_sat_count(all_signs) == 0
    assert brute_force_sat_count(formula(3, (1, 2, 3))) == 7


def test_dimacs_roundtrip():
    f = formula(3, (1, -2, 3), (-1, 2))
    assert parse_dimacs(dump_dimacs(f)) == f
    text = "c a comment\np cnf 2 2\n1 -2 0\n2 0\n"
    assert parse_dimacs(text) == formula(2, (1, -2), (2,))
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 5\n1 2 0\n")


def test_graph_parse():
    g = parse_graph("# comment\n3 3\n1 2\n2 3\n1 3\n", 2)
    assert g == triangle(2)
