"""Letter-square binary encoding: code, expressions, codec, matcher."""

import random

import pytest
from hypothesis import given, settings

from rxc.grids import Grid
from rxc.nfa import compile_regex, enumerate_language, matches
from rxc.oracle import brute_force_crosswords
from rxc.puzzle import uniform_puzzle
from rxc.reductions import (
    BINARY,
    CodecError,
    EncodingError,
    binarize_expr,
    binarized_matches,
    binary_code,
    member_fn,
    psi_decode,
    psi_encode,
)
from rxc.rex import Alphabet, is_positive, parse
from rxc.solver import count_grids, enumerate_grids, is_unique, solve, verify

from util import AB, grids, random_regex, record_supports

FIVE = Alphabet(("0", "1", "2", "3", "4"))


def test_code_blocks():
    code = binary_code(2)
    assert code.ell == 6
    assert code.shifts[0] == "000011"
    assert code.shifts[1] == "000110"
    assert code.shifts[3] == "011000"
    assert code.h_image(0) == "000011"
    assert code.h_image(1) == "011000"


def test_squares_size_and_symmetry():
    code = binary_code(5)
    assert len(code.squares) == 5
    for sq in code.squares:
        assert len(sq) == 15 and all(len(row) == 15 for row in sq)
        assert all(sq[i][j] == sq[j][i] for i in range(15) for j in range(15))
    assert len(set(code.squares)) == 5


def test_code_requires_two_letters():
    with pytest.raises(EncodingError):
        binary_code(1)


def test_binarize_requires_positive():
    with pytest.raises(EncodingError):
        binarize_expr(2, parse("0*", AB))


def test_binarized_lengths_are_one_mod_ell():
    f = binarize_expr(2, parse("0|1", AB))
    auto = compile_regex(f)
    for w in enumerate_language(auto, 19):
        assert len(w) % 6 == 1


def test_encoding_branch_example():
    # the encoding row for the single letter 0 is the base block twice
    f = binarize_expr(2, parse("0", AB))
    auto = compile_regex(f)
    assert matches(auto, "0" + "000011" + "000011")
    assert not matches(auto, "0" + "000011" + "011000")
    assert is_positive(f)


def test_psi_dimensions():
    g = Grid.from_strings(AB, ["1"])
    y = psi_encode(2, g)
    assert (y.m, y.n) == (13, 13)
    assert "".join(y.row_tokens(0)) == "1" * 7 + "0" * 6
    g2 = Grid.from_tokens(FIVE, [["0", "1", "2"], ["3", "4", "0"]])
    y2 = psi_encode(5, g2)
    assert (y2.m, y2.n) == (46, 61)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(grids([Alphabet(tuple("abcd"[:k])) for k in (2, 3, 4)], 1, 3))
def test_psi_roundtrip_random(g):
    k = len(g.alphabet)
    y = psi_encode(k, g)
    assert psi_decode(k, y, g.alphabet) == g
    assert y.m == 3 * k * (g.m + 1) + 1 and y.n == 3 * k * (g.n + 1) + 1


def test_psi_preserves_squareness():
    g = Grid.from_strings(AB, ["01", "10"])
    y = psi_encode(2, g)
    assert y.m == y.n


def test_psi_decode_claim_errors():
    with pytest.raises(CodecError) as err:
        psi_decode(2, Grid.from_strings(BINARY, ["0" * 13] * 13))
    assert err.value.claim == 3

    good = psi_encode(2, Grid.from_strings(AB, ["1"]))
    rows = ["".join(good.row_tokens(i)) for i in range(13)]

    def flipped(i, j):
        out = rows[:]
        out[i] = out[i][:j] + ("0" if out[i][j] == "1" else "1") + out[i][j + 1:]
        return Grid.from_strings(BINARY, out)

    # a calibration cell
    with pytest.raises(CodecError) as err:
        psi_decode(2, flipped(2, 8))
    assert err.value.claim == 4
    # a letter block in the encoding row (row index 6, block 1)
    with pytest.raises(CodecError) as err:
        psi_decode(2, flipped(7, 8))
    assert err.value.claim == 6
    # inside the letter square but off the encoding row
    with pytest.raises(CodecError) as err:
        psi_decode(2, flipped(9, 8))
    assert err.value.claim == 7
    # wrong shape
    with pytest.raises(CodecError) as err:
        psi_decode(2, Grid.from_strings(BINARY, ["01"] * 2))
    assert err.value.claim is None


def test_rows_and_columns_of_encodings_match():
    rng = random.Random(4)
    for _ in range(10):
        t = random_regex(rng, AB, depth=3, allow_intersection=False)
        u = random_regex(rng, AB, depth=3, allow_intersection=False)
        if not is_positive(t) or not is_positive(u):
            continue
        ft, fu = binarize_expr(2, t), binarize_expr(2, u)
        base = uniform_puzzle(t, u)
        enc = uniform_puzzle(ft, fu)
        from rxc.solver import enumerate_grids

        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for g in enumerate_grids(base, m, n):
                assert verify(enc, psi_encode(2, g))


def test_three_letter_enumeration_matches_images():
    from rxc.solver import enumerate_grids

    abc = Alphabet(("0", "1", "2"))
    t, u = parse("0|1|2", abc), parse("1|2", abc)
    puzzle = uniform_puzzle(binarize_expr(3, t), binarize_expr(3, u))
    found = enumerate_grids(puzzle, 19, 19)
    expected = {psi_encode(3, Grid.from_strings(abc, [x])).cells for x in "12"}
    assert {g.cells for g in found} == expected
    for g in found:
        psi_decode(3, g, abc)


@pytest.mark.parametrize("row, col", [("1", "1|0"), ("0|1", "1")])
def test_letter_squares_match_images(monkeypatch, row, col):
    # The 13 x 13 encodings of two 1 x 1 letter puzzles with one solution
    # each.  Their searches meet dead rows and then propagate line
    # supports at every row boundary they enter.
    calls = record_supports(monkeypatch)
    letters = brute_force_crosswords(uniform_puzzle(parse(row, AB), parse(col, AB)), 1, 1)
    images = [psi_encode(2, g).cells for g in letters]
    assert len(images) == 1
    puzzle = uniform_puzzle(binarize_expr(2, parse(row, AB)), binarize_expr(2, parse(col, AB)))
    assert [g.cells for g in enumerate_grids(puzzle, 13, 13)] == images
    assert calls
    assert count_grids(puzzle, 13, 13) == 1 and is_unique(puzzle, 13, 13)
    assert solve(puzzle, 13, 13).cells == images[0]


def test_binarized_matches_agrees_with_automata():
    rng = random.Random(21)
    for _ in range(8):
        t = random_regex(rng, AB, depth=3, allow_intersection=False)
        if not is_positive(t):
            continue
        f = binarize_expr(2, t)
        auto = compile_regex(f)
        mem = member_fn(compile_regex(t))
        for _ in range(400):
            length = rng.choice([1, 5, 6, 7, 12, 13, 14, 19, 20, 25])
            w = "".join(rng.choice("01") for _ in range(length))
            assert matches(auto, w) == binarized_matches(2, w, mem)
        for g in (["0"], ["1"], ["0", "1"]):
            y = psi_encode(2, Grid.from_strings(AB, g))
            for i in range(y.m):
                row = "".join(y.row_tokens(i))
                assert matches(auto, row) == binarized_matches(2, row, mem)
