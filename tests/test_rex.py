"""Regex layer: parsing, printing, positivity, homomorphisms."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rxc
from rxc.machines import bouncing_machine, demo_machine, overwriting_machine, zigzag_machine
from rxc.nfa import compile_regex, matches
from rxc.reductions import column_expression, row_expression, sat_reduce, squarify_col_expr
from rxc.reductions.binary import binarize_expr
from rxc.rex import (
    Alphabet,
    Concat,
    Inter,
    Lit,
    Plus,
    RegexSyntaxError,
    Union,
    UnknownSymbolError,
    apply_homomorphism,
    concat,
    format_regex,
    inter,
    is_positive,
    lit,
    opt,
    parse,
    plus,
    regex_matches,
    star,
    union_,
    used_symbols,
    word,
)

from util import AB, ABC, all_words, formula, random_regex

MARKERS = Alphabet(("<B|q1>", "[B,q0]", "[a]", "[B]"))


def test_parse_simple_union():
    r = parse("0|1", AB)
    assert isinstance(r.node, Union)
    assert r.node.parts == (Lit(AB.symbol("0")), Lit(AB.symbol("1")))


def test_parse_braced_marker_tokens():
    r = parse("{<B|q1>}{[B,q0]}{[a]}{[B]}+", MARKERS)
    assert isinstance(r.node, Concat)
    assert len(r.node.parts) == 4
    assert r.node.parts[0] == Lit(MARKERS.symbol("<B|q1>"))
    assert r.node.parts[1] == Lit(MARKERS.symbol("[B,q0]"))
    assert r.node.parts[2] == Lit(MARKERS.symbol("[a]"))
    assert r.node.parts[3] == Plus(Lit(MARKERS.symbol("[B]")))


def test_parse_braced_tokens_without_asserts():
    # Under python -O assert statements are stripped; the lexer must not
    # rely on one to consume the opening brace.
    code = ("from rxc.rex import Alphabet, format_regex, parse; "
            "print(format_regex(parse('{ab}c', Alphabet(('ab', 'c')))))")
    src = str(Path(rxc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "{ab}c"


def test_parse_intersection():
    r = parse("0*&1*", AB)
    from rxc.rex import Inter, Star

    assert r.node == Inter((Star(Lit(AB.symbol("0"))), Star(Lit(AB.symbol("1")))))


def test_parse_errors_carry_positions():
    with pytest.raises(RegexSyntaxError):
        parse("0|", AB)
    with pytest.raises(RegexSyntaxError):
        parse("(01", AB)
    with pytest.raises(UnknownSymbolError) as err:
        parse("02", AB)
    assert err.value.token == "2" and err.value.position == 1
    with pytest.raises(RegexSyntaxError, match=r"^empty symbol token \(at position 1\)$"):
        parse("0{}", AB)


@pytest.mark.parametrize("text, error, message", [
    ("0 1 ) ", RegexSyntaxError, "unexpected ')' (at position 4)"),
    ("(0 # note\n)) # x", RegexSyntaxError, "unexpected ')' (at position 11)"),
    ("0 | # trailing comment", RegexSyntaxError, "unexpected end of input (at position 22)"),
    ("0 # c\n|  # another\n", RegexSyntaxError, "unexpected end of input (at position 19)"),
    ("# only", RegexSyntaxError, "unexpected end of input (at position 6)"),
    ("0  \t x", UnknownSymbolError, "unknown symbol 'x' (at position 5)"),
    ("(0  # c\n  {zz}1)", UnknownSymbolError, "unknown symbol 'zz' (at position 10)"),
    ("0 { ab}", UnknownSymbolError, "unknown symbol ' ab' (at position 2)"),
    ("0 {", RegexSyntaxError, "unterminated '{' token (at position 2)"),
])
def test_parse_error_positions_next_to_whitespace_and_comments(text, error, message):
    with pytest.raises(error) as err:
        parse(text, AB)
    assert str(err.value) == message


def test_parse_nesting_limit():
    deep = "(" * 3000 + "0" + ")" * 3000
    with pytest.raises(RegexSyntaxError, match="nested too deeply"):
        parse(deep, AB)
    # 200 open groups is the most the grammar accepts, and the tree is
    # still shallow enough to compile and print.
    r = parse("(" * 200 + "0" + ")*" * 200, AB)
    assert matches(compile_regex(r), "000")
    assert parse(format_regex(r), AB) == r
    with pytest.raises(RegexSyntaxError, match="nested too deeply"):
        parse("(" * 201 + "0" + ")" * 201, AB)


def _round_trips_and_matches(r, words):
    """``r`` prints, reparses to an equal tree and compiles, and the
    compiled automaton agrees with the reference matcher on ``words``."""
    assert parse(format_regex(r), AB) == r
    auto = compile_regex(r)
    assert [matches(auto, w) for w in words] == [regex_matches(r, w) for w in words]


def test_parse_long_postfix_chain():
    # Postfix operators count toward no limit: no walk over the tree
    # recurses, so a chain of any length parses, prints and compiles.
    words = [w for n in range(4) for w in all_words(AB, n)]
    r = parse("0" + "*" * 3000, AB)
    assert format_regex(r) == "0" + "*" * 3000
    _round_trips_and_matches(r, words)
    assert regex_matches(r, "000") and not regex_matches(r, "01")
    r = parse("(" * 100 + "0" + ")***" * 100, AB)
    _round_trips_and_matches(r, words)


def test_parse_deep_operator_nesting():
    # Each level of "(0|0&0" adds a union, an intersection and a
    # concatenation node; only the parentheses count toward MAX_NESTING.
    def nested(levels):
        return "(0|0&0" * levels + "0" + ")" * levels

    words = [w for n in range(4) for w in all_words(AB, n)]
    for levels in (100, 67):
        r = parse(nested(levels), AB)
        _round_trips_and_matches(r, words)
        assert regex_matches(r, "0") and not regex_matches(r, "1")
    # A group of the same kind is spliced into its parent and adds none.
    flat = parse("(" * 150 + "01" + ")0" * 150, AB)
    assert isinstance(flat.node, Concat) and len(flat.node.parts) == 152


LEVELS = 10_000


def _deep_tree(bottom="0"):
    """A tree LEVELS levels deep, built through the API, with an
    intersection at the root and a small one about halfway down; its
    deepest leaf is ``bottom``."""
    zero, one = lit(AB, "0"), lit(AB, "1")
    r = lit(AB, bottom)
    # The chain runs down the leftmost operands, so that after a symbol
    # the epsilon-closure meets the next literal within a few states and
    # the automaton's tables stay small.
    for level in range(1, LEVELS - 1):
        if level == LEVELS // 2 + 1:
            r = concat([r, inter([star(zero), opt(word(AB, "00"))])])
        elif level % 3 == 0:
            r = concat([r, one])
        elif level % 3 == 1:
            r = union_([r, zero])
        else:
            r = opt(r)
    return inter([r, concat([one, star(union_([zero, one]))])])


def _depth(node):
    deepest, todo = 0, [(node, 1)]
    while todo:
        node, d = todo.pop()
        deepest = max(deepest, d)
        kids = getattr(node, "parts", None) or ((node.body,) if hasattr(node, "body") else ())
        todo.extend((k, d + 1) for k in kids)
    return deepest


def test_walks_on_a_deep_tree_built_through_the_api(monkeypatch):
    def refuse(limit):
        raise AssertionError("the library must not raise the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert sys.getrecursionlimit() < LEVELS
    r = _deep_tree()
    assert _depth(r.node) == LEVELS
    assert isinstance(r.node, Inter)
    # Its text opens thousands of groups, more than MAX_NESTING.
    with pytest.raises(RegexSyntaxError, match="nested too deeply"):
        parse(format_regex(r), AB)
    chain = lit(AB, "0")
    for level in range(1, LEVELS):
        chain = (star, opt, plus)[level % 3](chain)
    assert _depth(chain.node) == LEVELS
    assert parse(format_regex(chain), AB) == chain

    # Equality, hashing and repr walk the tree without recursing.
    same, other = _deep_tree(), _deep_tree(bottom="1")
    assert r == same and hash(r) == hash(same) and repr(r) == repr(same)
    assert r != other and repr(r) != repr(other)
    assert len({r, same, other}) == 2
    assert repr(chain).count("(body=") == LEVELS - 1

    words = [w for n in range(5) for w in all_words(AB, n)]
    auto = compile_regex(r)
    accepted = [matches(auto, w) for w in words]
    assert accepted == [regex_matches(r, w) for w in words]
    assert any(accepted) and not all(accepted)
    assert matches(compile_regex(chain), "000") and regex_matches(chain, "000")

    assert is_positive(r) and not is_positive(opt(r)) and not is_positive(chain)
    assert used_symbols(r) == set(AB.symbols)
    swap = {AB.symbol("0"): "1", AB.symbol("1"): "0"}
    swapped = apply_homomorphism(r, swap, AB)
    assert format_regex(swapped) == format_regex(r).translate(str.maketrans("01", "10"))
    assert is_positive(binarize_expr(2, r))


def test_parse_comments_and_whitespace():
    assert parse("0 | 1  # trailing comment", AB) == parse("0|1", AB)


def test_print_examples():
    assert format_regex(union_([lit(AB, "0"), lit(AB, "1")])) == "0|1"
    assert format_regex(plus(lit(MARKERS, "[B]"))) == "{[B]}+"
    assert format_regex(star(concat([lit(AB, "0"), lit(AB, "1")]))) == "(01)*"


def test_roundtrip_random_asts():
    rng = random.Random(42)
    for _ in range(500):
        r = random_regex(rng, AB, depth=6)
        assert parse(format_regex(r), AB) == r


def test_reduction_texts_round_trip():
    # The large expressions the reductions build print and reparse to
    # equal trees: the tableau row and columns of every machine, the SAT
    # pair at marker and binary level (the binary texts run to 144,121
    # and 179,767 characters), and binarized random pairs.
    exprs = []
    for machine, w in ((demo_machine(), "a"), (overwriting_machine(), "ab"),
                       (zigzag_machine(), "aa"), (bouncing_machine(), "a")):
        col = column_expression(machine)
        exprs += [row_expression(machine, w), col, squarify_col_expr(col, machine)]
    art = sat_reduce(formula(1, (1,)))
    exprs += [art.row_expr, art.col_expr, art.col_expr_square,
              art.row_expr_binary, art.col_expr_binary]
    rng = random.Random(3)
    for alphabet in (AB, ABC, ABC):
        pair = []
        while len(pair) < 2:
            r = random_regex(rng, alphabet, depth=4)
            if is_positive(r):
                pair.append(binarize_expr(len(alphabet), r))
        exprs += pair
    for e in exprs:
        assert parse(format_regex(e), e.alphabet) == e


def test_positivity_examples():
    assert not is_positive(parse("0*", AB))
    assert is_positive(parse("0+&0*", AB))
    assert not is_positive(parse("0?", AB))


def test_positivity_agrees_with_automata():
    rng = random.Random(7)
    for _ in range(500):
        r = random_regex(rng, AB, depth=6)
        assert is_positive(r) == (not matches(compile_regex(r), ""))


def test_homomorphism_concatenates_images():
    h = {AB.symbol("0"): "000011", AB.symbol("1"): "011000"}
    r = apply_homomorphism(parse("01", AB), h, AB)
    assert format_regex(r) == "000011011000"
    r2 = apply_homomorphism(parse("0*", AB), {AB.symbol("0"): "000011"}, AB)
    assert format_regex(r2) == "(000011)*"


def test_homomorphism_identity():
    ident = {s: (s,) for s in AB.symbols}
    rng = random.Random(3)
    for _ in range(50):
        r = random_regex(rng, AB, depth=4)
        assert apply_homomorphism(r, ident, AB) == r


def test_homomorphism_missing_image():
    with pytest.raises(ValueError, match="no image"):
        apply_homomorphism(parse("01", AB), {AB.symbol("0"): "0"}, AB)


def test_homomorphism_preserves_membership():
    # Images form a code (distinct fixed-length blocks), so membership
    # transfers exactly in both directions.
    h = {AB.symbol("0"): "000011", AB.symbol("1"): "011000"}

    def image(wsyms):
        return "".join(h[s] for s in wsyms)

    rng = random.Random(11)
    for _ in range(60):
        r = random_regex(rng, AB, depth=4)
        hr = compile_regex(apply_homomorphism(r, h, AB))
        base = compile_regex(r)
        for length in range(0, 7):
            for w in all_words(AB, length):
                assert matches(base, w) == matches(hr, image(w))


def test_word_and_token_rules():
    assert format_regex(word(AB, "010")) == "010"
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a b",))
    with pytest.raises(ValueError):
        Alphabet(("{x}",))


def test_regex_matches_reference():
    r = parse("(01)*&0*1*", AB)
    assert regex_matches(r, "01")
    assert not regex_matches(r, "0101")  # 0101 not in 0*1*
    assert regex_matches(r, "")
