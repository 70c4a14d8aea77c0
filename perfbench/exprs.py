"""Seeded random regular expressions, kept as plain tuples.

The benchmark writes its own expression text and builds the matching
tree with the ``rxc.rex`` constructors, so the parser is checked
against a tree it did not produce.  A node is one of

    ("lit", token)   ("any",)   ("eps",)
    ("cat", parts)   ("alt", parts)   ("and", parts)
    ("star", body)   ("plus", body)   ("opt", body)

where ``("any",)`` stands for ``(0|1)``.
"""

from __future__ import annotations

import random

_POSTFIX = {"star": "*", "plus": "+", "opt": "?"}
_JOIN = {"cat": "", "alt": "|", "and": "&"}


def render(e) -> str:
    """Expression text in rxc syntax; every composite child is parenthesised."""
    kind = e[0]
    if kind == "lit":
        return e[1]
    if kind == "any":
        return "(0|1)"
    if kind == "eps":
        return "_"
    if kind in _POSTFIX:
        return _wrap(e[1]) + _POSTFIX[kind]
    return _JOIN[kind].join(_wrap(p) for p in e[1])


def _wrap(e) -> str:
    text = render(e)
    return text if e[0] in ("lit", "any", "eps") else "(" + text + ")"


def build(e, rex, alphabet):
    """The tree the text of ``e`` denotes, made with the rex constructors."""
    kind = e[0]
    if kind == "lit":
        return rex.lit(alphabet, e[1])
    if kind == "any":
        return rex.union_([rex.lit(alphabet, "0"), rex.lit(alphabet, "1")])
    if kind == "eps":
        return rex.epsilon(alphabet)
    if kind in _POSTFIX:
        body = build(e[1], rex, alphabet)
        return {"star": rex.star, "plus": rex.plus, "opt": rex.opt}[kind](body)
    parts = [build(p, rex, alphabet) for p in e[1]]
    return {"cat": rex.concat, "alt": rex.union_, "and": rex.inter}[kind](parts)


def thompson_size(e) -> int:
    """States of the classic inductive NFA of an intersection-free expression."""
    kind = e[0]
    if kind in ("lit", "eps"):
        return 2
    if kind == "any":
        return 6
    if kind in _POSTFIX:
        return 2 + thompson_size(e[1])
    inner = sum(thompson_size(p) for p in e[1])
    return inner if kind == "cat" else 2 + inner


def random_expr(rng: random.Random, depth: int, tokens=("0", "1"),
                intersections: bool = True, leaf=None):
    """A random expression tree; ``leaf`` replaces the literal leaves."""
    if depth <= 0 or rng.random() < 0.3:
        if leaf is not None:
            return leaf
        if rng.random() < 0.06:
            return ("eps",)
        return ("lit", rng.choice(tokens))
    ops = ["alt", "alt", "cat", "cat", "cat", "star", "plus", "opt"]
    if intersections:
        ops.append("and")
    op = rng.choice(ops)
    if op in _POSTFIX:
        return (op, random_expr(rng, depth - 1, tokens, intersections, leaf))
    width = rng.choice((2, 2, 3))
    return (op, tuple(random_expr(rng, depth - 1, tokens, intersections, leaf)
                      for _ in range(width)))


def sized_expr(rng: random.Random, lo: int, hi: int, leaf=None):
    """An intersection-free expression whose Thompson size lies in [lo, hi]."""
    while True:
        e = random_expr(rng, 6, intersections=False, leaf=leaf)
        if lo <= thompson_size(e) <= hi:
            return e


def random_tree(rng: random.Random, nodes: int, tokens=("0", "1")):
    """A random expression with exactly ``nodes`` nodes; about one inner
    node in six is an intersection."""
    if nodes == 1:
        return ("eps",) if rng.random() < 0.06 else ("lit", rng.choice(tokens))
    if nodes == 2 or rng.random() < 0.25:
        return (rng.choice(tuple(_POSTFIX)), random_tree(rng, nodes - 1, tokens))
    width = 2 if nodes == 3 or rng.random() < 0.7 else 3
    cuts = sorted(rng.sample(range(1, nodes - 1), width - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, nodes - 1])]
    kind = rng.choice(("cat", "cat", "alt", "alt", "and"))
    return (kind, tuple(random_tree(rng, k, tokens) for k in sizes))


def permutation(rng: random.Random, tokens=("0", "1")) -> dict[str, str]:
    """A uniformly random renaming of the symbols."""
    shuffled = list(tokens)
    rng.shuffle(shuffled)
    return dict(zip(tokens, shuffled))


def variant(e, rng: random.Random, rename: dict[str, str] | None = None):
    """The same tree up to symmetry: the symbols renamed (at random unless
    ``rename`` is given) and the operands of every union and intersection
    shuffled.  Automaton sizes and search-tree sizes do not change."""
    if rename is None:
        rename = permutation(rng)

    def walk(node):
        kind = node[0]
        if kind == "lit":
            return ("lit", rename[node[1]])
        if kind in ("any", "eps"):
            return node
        if kind in _POSTFIX:
            return (kind, walk(node[1]))
        parts = [walk(p) for p in node[1]]
        if kind != "cat":
            rng.shuffle(parts)
        return (kind, tuple(parts))

    return walk(e)


def random_word(rng: random.Random, length: int, tokens=("0", "1")) -> str:
    return "".join(rng.choice(tokens) for _ in range(length))
