"""Shared helpers for the test suite: seeded random expression and
puzzle generators, and tiny formula/graph factories."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from rxc.grids import Grid
from rxc.nfa import Nfa, ViableSymbols, compile_regex
from rxc.oracle import CnfFormula, GraphInstance
from rxc.puzzle import Puzzle, uniform_puzzle
from rxc.rex import (
    Alphabet,
    Inter,
    Regex,
    concat,
    epsilon,
    inter,
    lit,
    opt,
    plus,
    star,
    union_,
)

AB = Alphabet(("0", "1"))
ABC = Alphabet(("0", "1", "2"))


def random_regex(rng: random.Random, alphabet: Alphabet, depth: int,
                 allow_intersection: bool = True) -> Regex:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.08:
            return epsilon(alphabet)
        return lit(alphabet, rng.choice(alphabet.tokens))
    ops = ["union", "union", "concat", "concat", "concat", "star", "plus", "opt"]
    if allow_intersection:
        ops.append("inter")
    op = rng.choice(ops)
    if op in ("union", "inter"):
        width = rng.choice([2, 2, 3])
        parts = [random_regex(rng, alphabet, depth - 1, allow_intersection)
                 for _ in range(width)]
        return union_(parts) if op == "union" else inter(parts)
    if op == "concat":
        width = rng.choice([2, 2, 3])
        return concat([random_regex(rng, alphabet, depth - 1, allow_intersection)
                       for _ in range(width)])
    body = random_regex(rng, alphabet, depth - 1, allow_intersection)
    return {"star": star, "plus": plus, "opt": opt}[op](body)


def deep_api_tree(levels: int) -> Regex:
    """A tree ``levels`` levels deep, built through the API by wrapping
    ``0`` in ``opt(r)``, ``concat([1, r])`` and ``union_([r, 0])`` in
    turn.  Each level adds at most one position.  The first positions of
    a level include those of every nullable level below it, so each
    concatenation links its ``1`` to a set that grows with the depth,
    but in one bitmask OR; a construction that walks every level above
    each literal, as an epsilon-closure of its exit does, costs time
    quadratic in the depth."""
    zero, one = lit(AB, "0"), lit(AB, "1")
    r = zero
    for level in range(levels - 1):
        k = level % 3
        r = opt(r) if k == 0 else concat([one, r]) if k == 1 else union_([r, zero])
    return r


def flat_automaton(r: Regex) -> Nfa:
    """``r`` compiled to one operand: followed by epsilon, no
    intersection sits at the root, so each becomes a product of its
    parts' positions."""
    auto = compile_regex(concat([r, epsilon(r.alphabet)]))
    if len(auto.ranges) != 1:
        raise TypeError(f"expected one operand, got {len(auto.ranges)} ranges")
    return auto


def unpacked(auto: Nfa) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Per range of ``auto``: its start set, classes and follow sets,
    shifted down so that its end bit is bit 0."""
    out = []
    for own in auto.ranges:
        at, hi = (own & -own).bit_length() - 1, own.bit_length()
        out.append(((auto.start & own) >> at, auto.classes[at:hi],
                    tuple(f >> at for f in auto.follow[at:hi])))
    return out


def operand_tables(r: Regex) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Per operand of ``r``'s root intersection (``r`` itself when its
    root is none): its start set, classes and follow sets compiled
    alone."""
    parts = r.node.parts if isinstance(r.node, Inter) else (r.node,)
    alone = [compile_regex(Regex(p, r.alphabet)) for p in parts]
    return [(a.start, a.classes, a.follow) for a in alone]


def record_steps(monkeypatch) -> list[tuple[int, object, int]]:
    """Record every ``Nfa.step`` call as (automaton id, states, symbol)."""
    calls = []
    real_step = Nfa.step

    def recording_step(self, states, sym_id):
        calls.append((id(self), states, sym_id))
        return real_step(self, states, sym_id)

    monkeypatch.setattr(Nfa, "step", recording_step)
    return calls


def record_supports(monkeypatch) -> list:
    """Record the masks of every ``ViableSymbols.supports`` call, one
    line walked by the search's row-boundary propagation."""
    calls = []
    real_supports = ViableSymbols.supports

    def recording_supports(self, entry, masks):
        calls.append(masks)
        return real_supports(self, entry, masks)

    monkeypatch.setattr(ViableSymbols, "supports", recording_supports)
    return calls


@st.composite
def grids(draw, alphabets, min_side: int, max_side: int) -> Grid:
    """A grid over one of ``alphabets`` with sides in [min_side, max_side]."""
    alphabet = draw(st.sampled_from(alphabets))
    m = draw(st.integers(min_side, max_side))
    row = st.tuples(*[st.integers(0, len(alphabet) - 1)] * draw(st.integers(min_side, max_side)))
    return Grid(alphabet, tuple(draw(st.lists(row, min_size=m, max_size=m))))


def random_puzzle(rng: random.Random, max_symbols: int = 3, depth: int = 4) -> Puzzle:
    size = rng.randint(1, max_symbols)
    alphabet = Alphabet(tuple("012"[:size]))
    return uniform_puzzle(
        random_regex(rng, alphabet, depth),
        random_regex(rng, alphabet, depth),
    )


def all_words(alphabet: Alphabet, length: int):
    """All words of exactly this length, in lexicographic symbol-id order."""
    if length == 0:
        yield ()
        return
    for s in alphabet.symbols:
        for rest in all_words(alphabet, length - 1):
            yield (s,) + rest


def grid_set(grids) -> set:
    return {g.cells for g in grids}


def formula(var_count: int, *clauses) -> CnfFormula:
    return CnfFormula(var_count, tuple(tuple(c) for c in clauses))


def triangle(k: int) -> GraphInstance:
    return GraphInstance(3, ((1, 2), (2, 3), (1, 3)), k)
