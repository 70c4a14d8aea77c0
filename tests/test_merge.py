"""Edge-marker merge of a row/column pair into one expression."""

import random

import pytest
from hypothesis import given, settings

from rxc.grids import Grid
from rxc.nfa import compile_regex, matches
from rxc.puzzle import uniform_puzzle
from rxc.reductions import (
    MergeDecodeError,
    PluralityError,
    merge_rc,
    merged_alphabet,
    rho_decode,
    rho_encode,
)
from rxc.rex import Alphabet, format_regex, is_positive, parse
from rxc.solver import enumerate_grids, is_plural

from util import AB, grid_set, grids, random_regex


def test_merge_structure():
    e = merge_rc(parse("00", AB), parse("00", AB))
    assert format_regex(e) == "{hrt}00|{dmd}{spd}{spd}{spd}*|00{spd}|{hrt}{hrt}{hrt}*{dmd}"
    assert is_positive(e)


def test_merge_membership_examples():
    e = merge_rc(parse("00", AB), parse("00", AB))
    auto = compile_regex(e)
    assert matches(auto, ["dmd", "spd", "spd"])
    assert matches(auto, ["hrt", "hrt", "dmd"])
    assert matches(auto, ["hrt", "0", "0"])
    assert matches(auto, ["0", "0", "spd"])
    assert not matches(auto, ["0", "0"])


def test_merge_requires_plural():
    with pytest.raises(PluralityError):
        merge_rc(parse("0+", AB), parse("0+", AB))


def test_fresh_symbols_primed_on_collision():
    taken = Alphabet(("hrt", "x"))
    merged = merged_alphabet(taken)
    assert merged.heart == "hrt'"
    assert merged.alphabet.tokens == ("hrt", "x", "hrt'", "dmd", "spd")


def test_rho_encode_example():
    g = Grid.from_strings(AB, ["00", "00"])
    enc = rho_encode(g)
    assert enc.row_tokens(0) == ("hrt", "0", "0")
    assert enc.row_tokens(2) == ("dmd", "spd", "spd")
    assert (enc.m, enc.n) == (3, 3)


# The last two bases hold marker tokens, so their markers are primed.
MERGE_BASES = [AB, Alphabet(("a",)), Alphabet(("hrt", "dmd", "spd")),
               Alphabet(("0", "spd'", "spd"))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(grids(MERGE_BASES, 2, 4))
def test_rho_roundtrip_random(g):
    assert rho_decode(rho_encode(g)) == (g, False)
    assert rho_decode(rho_encode(g).transpose()) == (g, True)


def test_rho_preserves_squareness():
    g = Grid.from_strings(AB, ["01", "10"])
    enc = rho_encode(g)
    assert enc.m == enc.n == 3


def test_rho_decode_rejects_junk():
    merged = merged_alphabet(AB).alphabet
    bad = Grid.from_tokens(merged, [["0", "0"], ["0", "0"]])
    with pytest.raises(MergeDecodeError):
        rho_decode(bad)


def test_merged_crosswords_correspond():
    # The merged solutions at (m+1)x(n+1) are exactly the framed m x n
    # originals plus the transposed frames of the n x m originals.
    rng = random.Random(77)
    done = 0
    while done < 12:
        r = random_regex(rng, AB, depth=3, allow_intersection=False)
        c = random_regex(rng, AB, depth=3, allow_intersection=False)
        if not is_plural(r, c):
            continue
        base = uniform_puzzle(r, c)
        originals = {
            (m, n): enumerate_grids(base, m, n) for m in (2, 3) for n in (2, 3)
        }
        if not any(originals.values()):
            continue
        done += 1
        e = merge_rc(r, c)
        merged = uniform_puzzle(e, e)
        for (m, n), grids in originals.items():
            found = {y.cells for y in enumerate_grids(merged, m + 1, n + 1)}
            expected = {rho_encode(g).cells for g in grids}
            expected |= {rho_encode(g).transpose().cells for g in originals[(n, m)]}
            assert found == expected
            for y in enumerate_grids(merged, m + 1, n + 1):
                dec, flipped = rho_decode(y)
                assert dec.cells in grid_set(enumerate_grids(base, dec.m, dec.n))
