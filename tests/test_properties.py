"""Property tests against the reference semantics: the automata layer
against ``regex_matches``, on random trees, on trees heavy in symbol
classes and on intersections of epsilon-heavy operands nested under a
closure or a concatenation, the printer against the parser, and the cell
search against the brute-force oracle on puzzles with a separate random
expression for every row and column; the one-symbol words of a tree
against ``regex_matches``; the read masks of the automata
against their steps; the queries on a packed root intersection against
its operands' own automata; the steps, read masks and feasibility of random
``Nfa`` position tables against a naive stepper; and the viable-symbol
tables against direct steps."""

import random

from hypothesis import given, settings, strategies as st

from rxc.nfa import Nfa, ViableSymbols, compile_regex, enumerate_language, matches
from rxc.oracle import brute_force_crosswords
from rxc.puzzle import Puzzle
from rxc.rex import (
    RESERVED_CHARS,
    Alphabet,
    Concat,
    Inter,
    Lit,
    Node,
    Opt,
    Plus,
    Regex,
    RegexSyntaxError,
    Star,
    Union,
    UnknownSymbolError,
    concat,
    epsilon,
    format_regex,
    inter,
    parse,
    regex_matches,
    single_symbols,
    union_,
    word,
)
from rxc.solver import (
    count_grids,
    decide_unbounded_width,
    enumerate_grids,
    is_unique,
    solve,
    verify,
)

from util import AB, ABC, all_words, flat_automaton, random_regex

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def regexes(draw):
    """A random expression over AB or ABC, intersections included, and
    the longest word length to check it on."""
    alphabet, max_len = draw(st.sampled_from([(AB, 5), (ABC, 4)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_regex(rng, alphabet, depth=4), max_len


@SETTINGS
@given(regexes())
def test_automata_agree_with_reference(case):
    r, max_len = case
    auto = compile_regex(r)
    words = [w for n in range(max_len + 1) for w in all_words(r.alphabet, n)]
    accepted = [w for w in words if regex_matches(r, w)]
    assert [w for w in words if matches(auto, w)] == accepted
    assert enumerate_language(auto, 4) == [
        "".join(s.token for s in w) for w in accepted if len(w) <= 4]


def _class_tree(rng: random.Random, alphabet, depth: int) -> Node:
    """A random tree heavy in the shapes that compile as symbol classes:
    unions of literals only (some nested, some of one literal), closures
    of them and of runs of them, concatenations that begin and end with
    runs of them, and intersections, some of whose parts are classes,
    under closures."""

    def cls() -> Node:
        lits = [Lit(s) for s in rng.sample(alphabet.symbols, rng.randint(1, len(alphabet)))]
        if len(lits) > 2 and rng.random() < 0.3:
            return Union((Union(tuple(lits[:2])), *lits[2:]))
        return Union(tuple(lits)) if len(lits) > 1 or rng.random() < 0.2 else lits[0]

    def closure() -> Node:
        body = cls() if rng.random() < 0.5 else Concat((cls(), cls()))
        return rng.choice([Star, Star, Plus, Opt])(body)

    def run() -> list[Node]:
        return [closure() if rng.random() < 0.25 else cls() for _ in range(rng.randint(0, 3))]

    if depth <= 0:
        return cls()
    op = rng.choice(["class", "concat", "concat", "union", "inter", "star", "plus", "opt"])
    if op == "class":
        return rng.choice([cls, lambda: Star(cls())])()
    sub = [_class_tree(rng, alphabet, depth - 1) for _ in range(rng.randint(1, 2))]
    if op == "concat":
        parts = run() + sub + run()
        return Concat(tuple(parts)) if len(parts) > 1 else parts[0]
    if op == "union":
        return Union(tuple(sub + [cls() for _ in range(rng.randint(1, 2))]))
    if op == "inter":
        return Inter(tuple(sub + [cls() if rng.random() < 0.5 else Star(cls())]))
    body = sub[0] if len(sub) == 1 else Concat(tuple(sub))
    return {"star": Star, "plus": Plus, "opt": Opt}[op](body)


@st.composite
def class_shapes(draw):
    """A class-heavy expression, with an intersection at the root, under
    a closure or neither, and the longest word length to check it on."""
    alphabet, max_len = draw(st.sampled_from([(AB, 5), (ABC, 4)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    node = _class_tree(rng, alphabet, depth=3)
    where = draw(st.sampled_from(["root", "closure", "none"]))
    if where != "none":
        node = Inter((node, _class_tree(rng, alphabet, depth=2)))
    if where == "closure":
        node = Concat((Star(node), *(Lit(s) for s in rng.sample(alphabet.symbols, 2))))
    return Regex(node, alphabet), max_len


@SETTINGS
@given(class_shapes())
def test_class_shapes_agree_with_reference(case):
    r, max_len = case
    auto = compile_regex(r)
    words = [w for n in range(max_len + 1) for w in all_words(r.alphabet, n)]
    accepted = [w for w in words if regex_matches(r, w)]
    assert [w for w in words if matches(auto, w)] == accepted
    assert enumerate_language(auto, 4) == [
        "".join(s.token for s in w) for w in accepted if len(w) <= 4]


def _epsilon_tree(rng: random.Random, alphabet, depth: int) -> Node:
    """A random operand heavy in epsilon-edges: concatenations of opt,
    star and plus of classes at the leaves; opt, star and plus of such
    placed parts, unions and concatenations of them, and intersections
    inside the operand above."""

    def cls() -> Node:
        lits = [Lit(s) for s in rng.sample(alphabet.symbols, rng.randint(1, len(alphabet)))]
        return Union(tuple(lits)) if len(lits) > 1 else lits[0]

    if depth <= 0:
        parts = tuple(rng.choice([Opt, Opt, Star, Plus])(cls()) for _ in range(rng.randint(1, 3)))
        return parts[0] if len(parts) == 1 else Concat(parts)
    op = rng.choice(["opt", "star", "plus", "union", "union", "concat", "inter"])
    sub = [_epsilon_tree(rng, alphabet, depth - 1) for _ in range(2)]
    if op == "union":
        return Union(tuple(sub + ([cls()] if rng.random() < 0.3 else [])))
    if op == "concat":
        return Concat(tuple(sub))
    if op == "inter":
        return Inter(tuple(sub))
    return {"opt": Opt, "star": Star, "plus": Plus}[op](sub[0])


@st.composite
def nested_intersections(draw):
    """An intersection of 2 to 4 epsilon-heavy operands under a star,
    plus or opt, or inside a concatenation, so that it compiles to an
    explicit product, and the longest word length to check it on."""
    alphabet, max_len = draw(st.sampled_from([(AB, 6), (ABC, 4)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    parts = draw(st.integers(2, 4))
    node: Node = Inter(tuple(_epsilon_tree(rng, alphabet, rng.randint(0, 2)) for _ in range(parts)))
    wrap = draw(st.sampled_from(["star", "plus", "opt", "before", "after"]))
    if wrap == "before":
        node = Concat((Lit(rng.choice(alphabet.symbols)), node))
    elif wrap == "after":
        node = Concat((node, Lit(rng.choice(alphabet.symbols))))
    else:
        node = {"star": Star, "plus": Plus, "opt": Opt}[wrap](node)
    return Regex(node, alphabet), max_len


@settings(derandomize=True, max_examples=100, deadline=None)
@given(nested_intersections())
def test_nested_intersections_agree_with_reference(case):
    r, max_len = case
    auto = compile_regex(r)
    assert isinstance(auto, Nfa)
    words = [w for n in range(max_len + 1) for w in all_words(r.alphabet, n)]
    assert [w for w in words if matches(auto, w)] == [w for w in words if regex_matches(r, w)]


@SETTINGS
@given(regexes())
def test_format_parse_roundtrip(case):
    r, _ = case
    assert parse(format_regex(r), r.alphabet) == r


# The alphabet's characters, every reserved character (braces and "#"
# among them), braced tokens known and unknown, blanks and newlines.  The
# symbols come several times over, so that more of the texts parse.
FUZZ_ALPHABET = Alphabet(("0", "1", "ab", "*"))
FUZZ_PIECES = ["0", "1", "a", "b", "x", *sorted(RESERVED_CHARS),
               "{ab}", "{*}", "{0}", "{}", "{a b}", " ", "\t", "\n"] + ["0", "1", "{ab}"] * 4


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=30).map("".join))
def test_parse_fuzz(text):
    # Any text either parses to a tree that prints and reparses to an
    # equal tree, or raises one of the two typed errors at a position
    # within the text; any other exception fails the test.
    try:
        r = parse(text, FUZZ_ALPHABET)
    except (RegexSyntaxError, UnknownSymbolError) as err:
        assert err.position is not None and 0 <= err.position <= len(text)
        return
    assert parse(format_regex(r), FUZZ_ALPHABET) == r


def _sets_within(auto, steps):
    """Every state set reached from the start in at most ``steps`` steps."""
    seen = frontier = {auto.start_set()}
    for _ in range(steps):
        frontier = {auto.step(s, a) for s in frontier for a in range(len(auto.alphabet))} - seen
        seen = seen | frontier
    return seen


@SETTINGS
@given(regexes())
def test_unreadable_symbols_step_to_dead_sets(case):
    r, _ = case
    intersection_free = "&" not in format_regex(r)
    syms = range(len(r.alphabet))
    auto = compile_regex(r)
    for states in _sets_within(auto, 4):
        readable = auto.readable(states)
        assert all(auto.is_dead(auto.step(states, a)) for a in syms if not readable >> a & 1)
        # Exact on each range: the symbols that enter its positions in
        # the set, and a symbol no position of a range reads empties it.
        exact = -1
        for own in auto.ranges:
            classes = 0
            for q, cls in enumerate(auto.classes):
                if (states & own) >> q & 1:
                    classes |= cls
            exact &= classes
            assert all(not auto.step(states, a) & own for a in syms if not classes >> a & 1)
        assert readable == exact
        if intersection_free:
            # Without intersections no symbol read leads to a dead set.
            assert not any(auto.is_dead(auto.step(states, a)) for a in syms if readable >> a & 1)
    # An explicit product keeps only states that can accept, so no symbol
    # it reads is dead: checked on each implicit product made explicit.
    for node in r.node.parts if isinstance(r.node, Union) else (r.node,):
        if isinstance(node, Inter):
            flat = flat_automaton(Regex(node, r.alphabet))
            for states in _sets_within(flat, 4):
                readable = flat.readable(states)
                assert not any(flat.is_dead(flat.step(states, a)) for a in syms if readable >> a & 1)


@st.composite
def root_intersections(draw):
    """A random intersection of 2 to 4 operands at the root, over AB or
    ABC; an operand whose own root is an intersection is followed by
    epsilon, so the root keeps exactly the operands drawn."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        part = random_regex(rng, alphabet, depth=3)
        if isinstance(part.node, Inter):
            part = concat([part, epsilon(alphabet)])
        parts.append(part)
    return inter(parts)


@SETTINGS
@given(root_intersections())
def test_packed_operands_agree_with_their_own_automata(r):
    # Each operand steps in its own range of the packed table; every
    # query on a packed set is the conjunction of the same query on the
    # operands' own automata, stepped on the same word.
    auto = compile_regex(r)
    alone = [compile_regex(Regex(p, r.alphabet)) for p in r.node.parts]
    assert len(auto.ranges) == len(alone) == len(r.node.parts)
    at = [(own & -own).bit_length() - 1 for own in auto.ranges]
    syms = range(len(r.alphabet))
    start = (auto.start_set(), tuple(a.start_set() for a in alone))
    seen = frontier = {start}
    for _ in range(4):
        frontier = {(auto.step(s, a), tuple(o.step(x, a) for o, x in zip(alone, xs)))
                    for s, xs in frontier for a in syms} - seen
        seen = seen | frontier
    for states, parts in seen:
        assert states == sum(x << k for x, k in zip(parts, at))
        assert auto.accepts(states) == all(o.accepts(x) for o, x in zip(alone, parts))
        assert auto.is_dead(states) == any(o.is_dead(x) for o, x in zip(alone, parts))
        readable = -1
        for o, x in zip(alone, parts):
            readable &= o.readable(x)
        assert auto.readable(states) == readable
        for k in (0, 1, 2, 3, 4, None):
            assert auto.feasible(states, k) == all(o.feasible(x, k) for o, x in zip(alone, parts)), k
    for n in range(7):
        for w in all_words(r.alphabet, n):
            assert matches(auto, w) == regex_matches(r, w), w


@SETTINGS
@given(regexes())
def test_single_symbols_agree_with_reference(case):
    # The one-fold guard of is_plural: the symbols a tree matches as a
    # one-symbol word, nullable parts of a concatenation included.
    r, _ = case
    mask = single_symbols(r)
    assert [mask >> s.id & 1 == 1 for s in r.alphabet] == [regex_matches(r, (s,)) for s in r.alphabet]


@SETTINGS
@given(regexes())
def test_viable_masks_agree_with_direct_steps(case):
    # The entries of one state set share its successors but not its
    # viable masks: each entry reached along the links, under every
    # count of symbols left, must read feasibility for its own count.
    r, _ = case
    auto = compile_regex(r)
    table = ViableSymbols(auto)
    every = (1 << len(r.alphabet)) - 1
    start = auto.start_set()
    # Up to three links deep from the start, which bounds the open walk.
    todo = [(table.entry(start, after), 0) for after in (None, 0, 1, 2, 3)]
    while todo:
        entry, depth = todo.pop()
        states, after = entry.states, entry.after
        viable = table.among(entry, every)
        assert viable == sum(1 << a for a in range(len(r.alphabet))
                             if auto.feasible(auto.step(states, a), after))
        if after != 0 and depth < 3:
            todo.extend((table.link(entry, a), depth + 1)
                        for a in range(len(r.alphabet)) if viable >> a & 1)


@st.composite
def position_tables(draw):
    """Random ``Nfa`` constructor arguments: up to 10 positions, each with
    any class, the empty one included, and any follow set over the
    positions and bit 0, self-loops included."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    n = draw(st.integers(1, 11))
    mask = st.integers(0, (1 << n) - 1)
    classes = [0] + draw(st.lists(st.integers(0, (1 << len(alphabet)) - 1),
                                  min_size=n - 1, max_size=n - 1))
    follow = [0] + draw(st.lists(mask, min_size=n - 1, max_size=n - 1))
    return alphabet, draw(mask), classes, follow


@SETTINGS
@given(position_tables())
def test_nfa_steps_agree_with_a_naive_stepper(case):
    alphabet, start, classes, follow = case
    auto = Nfa(alphabet, start, classes, follow)
    n = len(classes)
    syms = range(len(alphabet))

    def step(states, a):
        out = 0
        for q in range(n):
            if states >> q & 1 and classes[q] >> a & 1:
                out |= follow[q]
        return out

    def can_accept(states, k):
        layer = {states}
        for _ in range(k):
            layer = {step(x, a) for x in layer for a in syms}
        return any(x & 1 for x in layer)

    # Every set the start reaches, and every single position, which
    # covers the positions the start cannot reach.
    sets = {auto.start_set()} | {1 << q for q in range(n)}
    todo = list(sets)
    into: dict[int, set[int]] = {}
    while todo:
        states = todo.pop()
        assert [auto.feasible(states, k) for k in range(3)] == [
            can_accept(states, k) for k in range(3)]
        readable = 0
        for q in range(n):
            if states >> q & 1:
                readable |= classes[q]
        assert auto.readable(states) == readable
        for a in syms:
            nxt = auto.step(states, a)
            assert nxt == step(states, a)
            into.setdefault(nxt, set()).add(states)
            if nxt not in sets:
                sets.add(nxt)
                todo.append(nxt)
    # With no bound on the word, a set can accept iff it reaches, on the
    # graph of sets just walked, a set that accepts.
    ever = {x for x in sets if x & 1}
    todo = list(ever)
    while todo:
        for x in into.get(todo.pop(), ()):
            if x not in ever:
                ever.add(x)
                todo.append(x)
    assert {x for x in sets if auto.feasible(x, None)} == ever


@st.composite
def per_line_puzzles(draw, max_rows: int = 3):
    """A puzzle with its own random expression on every line.

    Each line's expression is a union of a random one and the line's
    words in up to two planted grids, so most puzzles have solutions.
    """
    alphabet = draw(st.sampled_from([AB, ABC]))
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(alphabet.tokens), min_size=n, max_size=n)
    planted = draw(st.lists(st.lists(row, min_size=m, max_size=m), max_size=2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def line(words):
        return union_([random_regex(rng, alphabet, depth=3)]
                      + [word(alphabet, w) for w in words])

    rows = tuple(line([g[i] for g in planted]) for i in range(m))
    cols = tuple(line([[g[i][j] for i in range(m)] for g in planted]) for j in range(n))
    return Puzzle(alphabet, rows, cols), m, n


@SETTINGS
@given(per_line_puzzles())
def test_search_agrees_with_brute_force(case):
    puzzle, m, n = case
    slow = [g.cells for g in brute_force_crosswords(puzzle, m, n)]
    assert [g.cells for g in enumerate_grids(puzzle, m, n)] == slow
    assert count_grids(puzzle, m, n) == len(slow)
    least = solve(puzzle, m, n)
    assert (least.cells if least is not None else None) == (slow[0] if slow else None)
    assert is_unique(puzzle, m, n) == (len(slow) == 1)


@SETTINGS
@given(per_line_puzzles(max_rows=2))
def test_width_decision_agrees_with_bounded_search(case):
    puzzle, m, _ = case
    # One column expression for every width: the union of the column
    # expressions keeps the planted grids as witnesses.
    col = union_(list(puzzle.cols))
    rows = puzzle.rows
    res = decide_unbounded_width(rows, col)
    bounded = Puzzle(puzzle.alphabet, rows, col)
    widths = [n for n in range(1, 7) if solve(bounded, m, n) is not None]
    if res.exists:
        assert res.grid.m == m and res.grid.n == res.width
        assert verify(bounded, res.grid)
        assert min(widths, default=None) == (res.width if res.width <= 6 else None)
    else:
        assert not widths
