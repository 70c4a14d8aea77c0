"""Automata layer: compilation, stepping, emptiness, enumeration."""

import itertools
import random

import pytest

from rxc.nfa import (
    Nfa,
    ViableSymbols,
    compile_regex,
    enumerate_language,
    is_empty,
    matches,
    step,
)
from rxc.machines import demo_machine
from rxc.markers import marker_alphabet
from rxc.rex import (
    Alphabet,
    Inter,
    concat,
    format_regex,
    lit,
    parse,
    regex_matches,
    star,
    union_,
    word,
)

from util import (
    AB,
    ABC,
    all_words,
    deep_api_tree,
    flat_automaton,
    operand_tables,
    random_regex,
    record_steps,
    unpacked,
)


def test_matches_examples():
    ab = Alphabet(("a", "b"))
    assert matches(compile_regex(parse("a*b*", ab)), "abb")
    assert not matches(compile_regex(parse("0*&1*", AB)), "01")


def test_nfa_rejects_out_of_range_start():
    # One position, entered on 0, that ends the word: the language 0.
    auto = Nfa(AB, 0b10, [0, 0b01], [0, 0b01])
    assert enumerate_language(auto, 3) == ["0"]
    for start, classes, follow, what in [
        (0b100, [0, 0b01], [0, 0b01], "start set"),
        (-1, [0, 0b01], [0, 0b01], "start set"),
        (0b10, [0, 0b100], [0, 0b01], "class"),
        (0b10, [0, -1], [0, 0b01], "class"),
        (0b10, [0, 0b01], [0, 0b100], "follow set"),
        (0b10, [0, 0b01], [0, -2], "follow set"),
        (0b10, [0b01, 0b01], [0, 0b01], "bit 0"),
        (0b10, [0, 0b01], [0b01, 0b01], "bit 0"),
        (0b10, [0, 0b01], [0], "follow sets for"),
        (0, [], [], "bit 0"),
    ]:
        with pytest.raises(ValueError, match=what):
            Nfa(AB, start, classes, follow)


def test_negative_symbol_counts_are_refused():
    # Read from the end, the list of reach layers would answer -1 with
    # the longest count asked so far: True here once 3 has been asked.
    for ask_first in (False, True):
        auto = compile_regex(parse("000", AB))
        start = auto.start_set()
        if ask_first:
            assert auto.feasible(start, 3) and not auto.feasible(start, 2)
        for steps in (-1, -3):
            with pytest.raises(ValueError, match="negative"):
                auto.feasible(start, steps)
            with pytest.raises(ValueError, match="negative"):
                auto.reach_in(steps)


def test_compile_union_small():
    auto = compile_regex(parse("0|1", AB))
    accepted = [
        "".join(s.token for s in w)
        for n in range(4)
        for w in all_words(AB, n)
        if matches(auto, w)
    ]
    assert accepted == ["0", "1"]


def test_intersection_of_stars_is_epsilon():
    auto = compile_regex(parse("0*&1*", AB))
    assert enumerate_language(auto, 4) == [""]


def test_step_examples():
    auto = compile_regex(parse("0+", AB))
    s = auto.start_set()
    s = step(auto, s, "0")
    assert auto.accepts(s)
    assert auto.step(0, 0) == 0  # dead set stays dead

    auto2 = compile_regex(parse("01|10", AB))
    s = auto2.start_set()
    s = step(auto2, s, "0")
    s = step(auto2, s, "1")
    assert auto2.accepts(s)
    s = auto2.start_set()
    s = step(auto2, s, "0")
    s = step(auto2, s, "0")
    assert not auto2.accepts(s)


def test_pass_through_states_leave_the_sets():
    # (0|1)* is one position looping on both symbols, so its three sets
    # are equal.
    auto = compile_regex(parse("(0|1)*", AB))
    s0 = auto.start_set()
    assert auto.step(s0, 0) == s0 == auto.step(s0, 1)
    # (01|1)* after 1 or 01 can enter the first positions of 01 and of 1
    # again, and accepts, as at the start: the three sets are equal.
    auto = compile_regex(parse("(01|1)*", AB))
    s0 = auto.start_set()
    assert auto.step(s0, 1) == s0 == auto.step(auto.step(s0, 0), 1)


def test_star_of_a_class_is_one_state():
    # The union of n marker literals is one class: its star is one
    # position entered on any of the n symbols, followed by itself and
    # able to end, with no position per literal.  Bit 0 makes the second
    # state.
    markers = marker_alphabet(demo_machine()).alphabet
    assert len(markers) == 36
    for n in (1, 2, 28, 36):
        r = star(union_([lit(markers, t) for t in markers.tokens[:n]]))
        auto = compile_regex(r)
        assert (auto.state_count, auto.classes, auto.follow) == (2, (0, (1 << n) - 1), (0, 0b11))
        assert auto.start == 0b11 and not auto.epsilon_edges
        assert enumerate_language(auto, 1) == ["", *markers.tokens[:n]]


def test_literal_word_is_a_chain():
    for length in (1, 2, 5, 40):
        text = "01" * (length // 2) + "1" * (length % 2)
        auto = compile_regex(word(AB, text))
        assert auto.state_count == length + 1
        assert len(auto.labeled_edges) == length and not auto.epsilon_edges
        assert enumerate_language(auto, length) == [text]


@pytest.mark.parametrize("text, positions", [
    ("(0|1)+", 1),      # the class, followed by itself
    ("(0|1)?", 1),
    ("(01)*", 2),       # the 1 is followed by the 0 and can end
    ("(0(1|0)1)*", 3),
    ("01|10|1", 5),     # one position per literal of each run, the lone 1 one class
    ("(01|1)*", 3),
    ("1(01)*0+", 4),
    ("((01)*|1+)?", 3),
])
def test_closures_of_classes_and_runs(text, positions):
    r = parse(text, AB)
    auto = compile_regex(r)
    assert auto.state_count == positions + 1 and not auto.epsilon_edges
    for n in range(7):
        for w in all_words(AB, n):
            assert matches(auto, w) == regex_matches(r, w), w


def test_nested_intersection_of_literal_runs():
    # Each part of the intersection under the star begins and ends with a
    # run of classes, so its entry and exit are chained states and, for a
    # part placed after the others, its states are not the lowest.
    r = parse("((0|1)1(0|1)*0&0(0|1)*(1|0)&(01|1|0)*)*1", AB)
    auto = compile_regex(r)
    assert isinstance(auto, Nfa)
    for n in range(6):
        for w in all_words(AB, n):
            assert matches(auto, w) == regex_matches(r, w), w
    r = parse("0(1&(0|1)|01(0|1)*&0*1*)*(1|0)0", AB)
    auto = compile_regex(r)
    for n in range(6):
        for w in all_words(AB, n):
            assert matches(auto, w) == regex_matches(r, w), w


def test_nested_intersection_of_many_closures_stays_small():
    # Each part is a star of optional symbols, so each of its positions
    # follows most others and many share one future.  The product keys
    # its positions on the tuple of the parts' distinct futures and stays
    # small; a product that interleaved the parts' moves one part at a
    # time, as an epsilon-NFA product does, built 19,604 states here.
    r = parse("((0?1?0?1?0?1?)*&(1?0?1?0?1?0?)*&(0?0?1?1?)*&(1?1?0?0?)*)*0", AB)
    auto = compile_regex(r)
    assert isinstance(auto, Nfa) and auto.state_count <= 20
    for n in range(9):
        for w in all_words(AB, n):
            assert matches(auto, w) == (n > 0 and w[-1].token == "0"), w


def test_sets_hold_only_reading_or_accepting_states():
    # A set holds bit 0, its accept bit, and positions that some symbol
    # enters; a nested product keeps no position with an empty class.
    rng = random.Random(11)
    for k in range(200):
        alphabet = (AB, ABC)[k % 2]
        auto = flat_automaton(random_regex(rng, alphabet, depth=4))
        kernel = 1
        for q, cls in enumerate(auto.classes):
            if cls:
                kernel |= 1 << q
        seen = {auto.start_set()}
        todo = list(seen)
        while todo:
            states = todo.pop()
            assert states & ~kernel == 0
            for sym in range(len(alphabet)):
                nxt = auto.step(states, sym)
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)


def test_compile_rule_on_random_trees():
    # Only an intersection at the root packs more than one operand, each
    # its part compiled alone; all else compiles to one operand.
    rng = random.Random(5)
    kinds = set()
    empties = set()
    for k in range(300):
        alphabet = (AB, ABC)[k % 2]
        r = random_regex(rng, alphabet, depth=4)
        auto = compile_regex(r)
        assert isinstance(auto, Nfa)
        kinds.add(len(auto.ranges) > 1)
        assert unpacked(auto) == operand_tables(r)
        if not isinstance(r.node, Inter):
            assert auto.ranges == ((1 << auto.state_count) - 1,) and auto.ends == 1
        # A short word that the reference matcher accepts rules out
        # emptiness.
        empty = is_empty(r)
        empties.add(empty)
        if empty:
            for n in range(7):
                assert not any(regex_matches(r, w) for w in all_words(alphabet, n)), format_regex(r)
    assert kinds == {False, True}
    assert empties == {True, False}


def test_explicit_products_keep_only_states_that_can_accept():
    # 00 and 01 share no word, so the product nested under the star has
    # no state that can accept, and no symbol leads anywhere.
    auto = compile_regex(parse("(00&01)*", AB))
    assert isinstance(auto, Nfa)
    assert auto.readable(auto.start_set()) == 0
    assert enumerate_language(auto, 4) == [""]


def test_repeated_subtrees_get_their_own_states():
    # x occurs twice; a compile that gave both occurrences the same
    # states would loop from the second back into the first and accept
    # "11".
    x = star(word(AB, "01"))
    r = concat([x, lit(AB, "1"), x])
    auto, reparsed = compile_regex(r), compile_regex(parse(format_regex(r), AB))
    for n in range(7):
        for w in all_words(AB, n):
            assert matches(auto, w) == regex_matches(r, w) == matches(reparsed, w), w


def test_is_empty_examples():
    assert is_empty(parse("0&1", AB))
    assert not is_empty(parse("0*", AB))
    assert is_empty(parse("0+&1+", AB))


def test_is_empty_restricted():
    # Restricting a language to some symbols is an intersection with
    # their plus: 0*1 needs a 1.
    assert is_empty(parse("0*1&0+", AB))
    assert not is_empty(parse("0*1&(0|1)+", AB))


def test_enumerate_language_order():
    assert enumerate_language(compile_regex(parse("0|1", AB)), 2) == ["0", "1"]
    assert enumerate_language(compile_regex(parse("(01)*", AB)), 4) == ["", "01", "0101"]


def test_viable_symbols_per_key_and_lazy():
    auto = compile_regex(parse("(0|1)*1", AB))
    table = ViableSymbols(auto)
    start = auto.start_set()
    # The same state set is a different key for each count of cells left.
    zero = table.entry(start, 0)
    assert table.among(zero, 0b01) == 0 and zero.succ[1] is None    # 1 not asked, not stepped
    assert table.among(zero, 0b11) == 0b10
    assert table.among(table.entry(start, 1), 0b11) == 0b11
    assert table.among(table.entry(start, None), 0b11) == 0b11
    one = table.entry(start, 1)
    assert table.among(one, 0b10) == 0b10 and one.succ[1] == auto.step(start, 1)


def test_viable_symbols_links_successor_entries():
    auto = compile_regex(parse("(0|1)*1", AB))
    table = ViableSymbols(auto)
    start = auto.start_set()
    root = table.entry(start, 2)
    assert table.entry(start, 2) is root
    assert table.among(root, 0b11) == 0b11 and root.links == [None, None]
    # A link is the entry of (successor, one symbol fewer), made on first
    # traversal and shared with the keyed lookup of the same pair.
    after_1 = table.link(root, 1)
    assert root.links[1] is after_1 is table.entry(auto.step(start, 1), 1)
    assert root.links[0] is None
    # With no count of symbols left, the successor keeps None.
    open_root = table.entry(start, None)
    table.among(open_root, 0b01)
    assert table.link(open_root, 0) is table.entry(auto.step(start, 0), None)


def test_line_supports_look_back_from_acceptance():
    # 00|11 with the last cell held to 1: forward support alone keeps 0
    # in the first cell, the walk back from acceptance drops it.
    auto = compile_regex(parse("00|11", AB))
    table = ViableSymbols(auto)
    root = table.entry(auto.start_set(), 1)
    assert table.supports(root, (0b11, 0b11)) == (0b11, 0b11)
    assert table.supports(root, (0b11, 0b10)) == (0b10, 0b10)
    assert table.supports(root, (0b01, 0b10)) == ()
    assert table.supports(root, (0b11, 0b10)) is table.supports(root, (0b11, 0b10))


def test_line_supports_match_brute_force():
    # Per cell, the symbols of its mask that some accepted word reading
    # every cell within its mask uses; single operands and packed root
    # intersections.
    rng = random.Random(16)
    for _ in range(150):
        auto = compile_regex(random_regex(rng, AB, depth=3))
        table = ViableSymbols(auto)
        length = rng.randint(1, 4)
        masks = tuple(rng.choice((0b01, 0b10, 0b11, 0b11)) for _ in range(length))
        want = [0] * length
        for w in itertools.product((0, 1), repeat=length):
            if all(masks[t] >> s & 1 for t, s in enumerate(w)) and matches(auto, "".join(map(str, w))):
                for t, s in enumerate(w):
                    want[t] |= 1 << s
        root = table.entry(auto.start_set(), length - 1)
        assert table.supports(root, masks) == (tuple(want) if want[0] else ())


def test_enumerate_language_steps_each_state_set_once(monkeypatch):
    # Every length walks the same few state sets with a different count
    # of symbols left; their entries share one node per set, so each
    # (state set, symbol) pair is stepped once in all.
    calls = record_steps(monkeypatch)
    words = enumerate_language(compile_regex(parse("(0|1)*0", AB)), 10)
    assert len(words) == 2 ** 10 - 1
    assert len(calls) == len(set(calls)) == 4
    assert len(calls) <= len(AB) * len({states for _, states, _ in calls})


def test_enumerate_language_long_words():
    # Longer than the interpreter's default recursion limit of 1,000.
    words = enumerate_language(compile_regex(parse("0*", AB)), 1200)
    assert words == ["0" * k for k in range(1201)]


def test_enumerate_composite_union_of_intersection():
    auto = compile_regex(parse("0*&1*|00", AB))
    assert enumerate_language(auto, 4) == ["", "00"]
    assert not is_empty(parse("0*&1*|00", AB))


def test_enumerate_alignment_block():
    from rxc.reductions.binary import binary_code
    from rxc.rex import concat, plus, word

    code = binary_code(2)
    a = concat([word(AB, "1" * code.ell), plus(word(AB, "0" * code.ell))])
    assert enumerate_language(compile_regex(a), 12) == ["111111000000"]


def test_differential_membership_against_reference():
    rng = random.Random(2024)
    for _ in range(500):
        r = random_regex(rng, AB, depth=5)
        auto = compile_regex(r)
        for length in range(0, 7):
            for w in all_words(AB, length):
                assert matches(auto, w) == regex_matches(r, w), (r, w)


def test_product_correctness():
    rng = random.Random(99)
    for _ in range(120):
        r = random_regex(rng, AB, depth=3, allow_intersection=False)
        s = random_regex(rng, AB, depth=3, allow_intersection=False)
        both = compile_regex(r & s)
        ra, sa = compile_regex(r), compile_regex(s)
        for length in range(0, 7):
            for w in all_words(AB, length):
                assert matches(both, w) == (matches(ra, w) and matches(sa, w))


def test_step_composition_equals_matches():
    rng = random.Random(5)
    for _ in range(150):
        r = random_regex(rng, AB, depth=4)
        auto = compile_regex(r)
        for length in range(0, 5):
            for w in all_words(AB, length):
                s = auto.start_set()
                for sym in w:
                    s = auto.step(s, sym.id)
                assert auto.accepts(s) == matches(auto, w)


def test_nested_intersection_compiles():
    # Intersections under closure operators go through the explicit product.
    r = parse("(0*&(01|0)*)1", AB)
    auto = compile_regex(r)
    assert matches(auto, "01")
    assert matches(auto, "001")
    assert not matches(auto, "011")
    rng = random.Random(31)
    for _ in range(60):
        r = random_regex(rng, AB, depth=4)
        nested = parse(f"({r})*1" if rng.random() < 0.5 else f"0({r})?", AB)
        auto = compile_regex(nested)
        for length in range(0, 5):
            for w in all_words(AB, length):
                assert matches(auto, w) == regex_matches(nested, w)


def test_deep_tree_closures():
    # Each level adds at most one position, and each concatenation links
    # its 1 to the first positions below it in one bitmask OR; a
    # construction that walks every level above each literal costs time
    # quadratic in the depth and took seconds here.
    r = deep_api_tree(10_000)
    auto = compile_regex(r)
    rng = random.Random(3)
    words = ["1" * rng.randrange(12) + rng.choice(("", "0", "00", "01")) for _ in range(3)]
    accepted = [matches(auto, w) for w in words]
    assert accepted == [regex_matches(r, w) for w in words]
    assert any(accepted) and not all(accepted)
