"""Position automata compiled from regex trees.

Every tree compiles to one position table (``Nfa``), by the position
construction of Glushkov and of McNaughton and Yamada, over symbol
classes: a literal, or a union of literals only, is one mask of
symbols, and each such class placed in the tree is one position.  A
position is entered by reading a symbol of its class; its follow set
holds the positions that can be entered next.  No automaton has an
epsilon-edge, so no closure is ever taken.  A nested intersection
becomes the reachable product of its parts' positions, as in Caron,
Champarnaud and Mignot (LATA 2011), trimmed to the positions that can
still end the intersection.  A root intersection stays an implicit
product: its operands' tables sit side by side in one table, each in
its own range of bits.  Emptiness (``is_empty``) compiles the root as
one operand whatever it is, so every product it reads is exact.

A state set is one int bitmask of the positions that can be entered
next.  Each operand's range starts at its end bit, no position, which
the set holds when the word read so far ends that operand.  A step ORs
the follow sets of the set's positions whose class holds the symbol.  A
set accepts when it holds every end bit, and is dead when some range
holds no bit.

An automaton reports, per state set, the symbols the set can read
(``readable``); any other symbol steps it to a dead set.
``ViableSymbols`` tabulates, per state set and number of symbols left,
which symbols keep a line alive, as the nodes of a lazily built DFA
that the grid search and ``enumerate_language`` walk.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterator, Sequence, Union as TUnion

from .rex import (
    Alphabet,
    Concat,
    Eps,
    Inter,
    Lit,
    Node,
    Opt,
    Plus,
    Regex,
    Star,
    Symbol,
    Union,
    symbols,
)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Nfa:
    """Position table over symbol ids, stepping bitmasks of positions.

    ``classes[q]`` masks the symbols that enter position q, ``follow[q]``
    is the set entered next and ``start`` the set before any symbol.
    ``ends`` masks the end bits, one per packed operand (bit 0 alone for
    one): an end bit is no position, and a follow set holds it when its
    position can end the operand.  ``ranges[i]`` masks operand i's bits,
    from its end bit up to the next one; no follow set leaves its range.
    ``state_count`` is the number of bits.  ``labeled_edges`` lists the
    edges, one per position, symbol of its class and bit of its follow
    set, made on each read; there is no epsilon-edge.
    """

    epsilon_edges: frozenset[tuple[int, int]] = frozenset()

    def __init__(self, alphabet: Alphabet, start: int,
                 classes: Sequence[int], follow: Sequence[int], ends: int = 1):
        n, nsyms = len(classes), len(alphabet)
        if len(follow) != n:
            raise ValueError(f"{len(follow)} follow sets for {n} classes")
        if not ends & 1 or ends >> n:
            raise ValueError(f"end bits {ends:#x} must hold bit 0 and lie below bit {n}")
        if start & ~((1 << n) - 1):
            raise ValueError(f"start set {start:#x} out of range")
        syms = (1 << nsyms) - 1
        pos = [0] * nsyms
        preds = []
        ranges = []
        bounds = [*_bits(ends), n]
        for lo, hi in zip(bounds, bounds[1:]):
            if classes[lo] or follow[lo]:
                raise ValueError(f"end bit {lo} is no position: it needs an empty class and follow set")
            own = (1 << hi) - (1 << lo)
            ranges.append(own)
            for q in range(lo + 1, hi):
                cls, nxt = classes[q], follow[q]
                if cls & ~syms:
                    raise ValueError(f"class {cls:#x} of position {q} out of range")
                if nxt & ~own:
                    raise ValueError(f"follow set {nxt:#x} of position {q} out of range")
                if cls:
                    preds.append((nxt, q))
                    for a in _bits(cls):
                        pos[a] |= 1 << q
        self.alphabet = alphabet
        self.state_count = n
        self.start = start
        self.classes = tuple(classes)
        self.follow = tuple(follow)
        self.ends = ends
        self.ranges = tuple(ranges)
        self._pos = pos
        # One (follow set, position) pair per position that can be
        # entered: it is one symbol before a layer iff its follow set
        # meets the layer.
        self._preds = preds
        self._reach_layers = [ends]
        self._reach_any: int | None = None

    @property
    def labeled_edges(self) -> frozenset[tuple[int, int, int]]:
        return frozenset((q, a, t) for q, cls in enumerate(self.classes)
                         for a in _bits(cls) for t in _bits(self.follow[q]))

    # -- stepping ------------------------------------------------------

    def start_set(self) -> int:
        return self.start

    def step(self, states: int, sym_id: int) -> int:
        out = 0
        follow = self.follow
        todo = states & self._pos[sym_id]
        while todo:
            low = todo & -todo
            out |= follow[low.bit_length() - 1]
            todo ^= low
        return out

    def readable(self, states: int) -> int:
        """Mask of the symbols that enter a position of ``states`` in each range."""
        out = -1
        classes = self.classes
        for own in self.ranges:
            got = 0
            todo = states & own
            while todo:
                low = todo & -todo
                got |= classes[low.bit_length() - 1]
                todo ^= low
            out &= got
        return out

    def is_dead(self, states: int) -> bool:
        for own in self.ranges:
            if not states & own:
                return True
        return False

    def accepts(self, states: int) -> bool:
        return states & self.ends == self.ends

    def _preds_of(self, layer: int) -> int:
        out = 0
        for nxt, q in self._preds:
            if nxt & layer:
                out |= 1 << q
        return out

    def reach_in(self, steps: int | None) -> int:
        """Mask of the bits with some path of exactly ``steps`` symbols
        to their range's end bit, or of any length when ``steps`` is
        None."""
        if steps is None:
            if self._reach_any is None:
                alive = frontier = self.ends
                while frontier:
                    grown = self._preds_of(frontier)
                    frontier = grown & ~alive
                    alive |= grown
                self._reach_any = alive
            return self._reach_any
        if steps < 0:
            raise ValueError(f"negative symbol count {steps}")
        layers = self._reach_layers
        while len(layers) <= steps:
            layers.append(self._preds_of(layers[-1]))
        return layers[steps]

    def feasible(self, states: int, steps: int | None) -> bool:
        """Can ``states`` accept after exactly ``steps`` more symbols
        (after any number when ``steps`` is None)?  Each range needs a
        bit that can, with a witness word of its own."""
        hit = states & self.reach_in(steps)
        for own in self.ranges:
            if not hit & own:
                return False
        return True


class ViableEntry:
    """One entry of a ``ViableSymbols`` table, for one (state set,
    symbols left) pair: a node of the table's lazily built DFA.

    ``viable`` masks the symbols read so far whose successor can still
    accept in the symbols left, ``unstepped`` the readable symbols this
    entry has not read yet, and ``links[sym]`` holds the successor's
    entry once it is followed.  ``succ`` belongs to the state set, not
    the entry: every entry of the set shares the list, and ``succ[sym]``
    holds the successor on each symbol any of them has stepped.
    """

    __slots__ = ("states", "after", "unstepped", "viable", "succ", "links")

    def __init__(self, states, after: int | None, readable: int, succ: list):
        self.states = states
        self.after = after
        self.unstepped = readable
        self.viable = 0
        self.succ = succ
        self.links: list = [None] * len(succ)


class ViableSymbols:
    """Which symbols keep a line alive, per (state set, symbols left).

    A symbol is viable when ``auto.step(states, sym)`` can still accept
    after exactly ``after`` more symbols (after any number when
    ``after`` is None).  This is the forward support of Pesant's REGULAR
    constraint, built as a lazy DFA on two levels.  Each state set gets
    one node, its readable mask and its successor list, made on the
    set's first lookup.  Each (states, after) pair gets one
    ``ViableEntry``, which shares its set's successors and keeps its own
    viable mask and links: a viable symbol's successor, with one symbol
    fewer left (None stays None), is linked from the entry on its first
    traversal.  A walk along the links indexes lists and hashes no state
    set; the keyed lookup (``entry``) runs for a walk's root and once per
    new link.  Symbols are stepped lazily, only those a caller asks
    about, and each (state set, symbol) pair at most once, whatever the
    symbols left; symbols the set cannot read step to a dead set and are
    never stepped.  A table serves one search and is dropped with it.

    ``supports`` adds the backward half of REGULAR for one line: which
    symbols of each cell lie on some accepting walk through the cells'
    masks.
    """

    __slots__ = ("auto", "_nsyms", "_nodes", "_entries", "_supports")

    def __init__(self, auto: Nfa):
        self.auto = auto
        self._nsyms = len(auto.alphabet)
        # Per state set: (readable mask, successor list).
        self._nodes: dict[object, tuple[int, list]] = {}
        self._entries: dict[tuple, ViableEntry] = {}
        self._supports: dict[tuple, tuple[int, ...]] = {}

    def entry(self, states, after: int | None) -> ViableEntry:
        """The entry of ``(states, after)``, made on first lookup."""
        key = (states, after)
        entry = self._entries.get(key)
        if entry is None:
            node = self._nodes.get(states)
            if node is None:
                node = self._nodes[states] = (
                    self.auto.readable(states), [None] * self._nsyms)
            entry = self._entries[key] = ViableEntry(states, after, *node)
        return entry

    def among(self, entry: ViableEntry, symbols: int) -> int:
        """The viable symbols of ``entry`` among ``symbols``, reading the
        readable ones it has not read yet and stepping those its state
        set has not stepped."""
        todo = symbols & entry.unstepped
        if todo:
            auto, states, after = self.auto, entry.states, entry.after
            succ, viable = entry.succ, entry.viable
            entry.unstepped ^= todo
            while todo:
                low = todo & -todo
                todo ^= low
                sym = low.bit_length() - 1
                nxt = succ[sym]
                if nxt is None:
                    nxt = succ[sym] = auto.step(states, sym)
                if auto.feasible(nxt, after):
                    viable |= low
            entry.viable = viable
        return entry.viable & symbols

    def link(self, entry: ViableEntry, sym: int) -> ViableEntry:
        """Link a viable symbol of ``entry`` to its successor's entry."""
        after = entry.after
        nxt = entry.links[sym] = self.entry(
            entry.succ[sym], None if after is None else after - 1)
        return nxt

    def supports(self, entry: ViableEntry, masks: tuple[int, ...]) -> tuple[int, ...]:
        """Per cell of a line, the symbols of its mask that some walk
        from ``entry`` through every cell's mask uses, a walk that can
        still accept when the last cell is read; () when no walk exists.

        ``entry.after`` must be ``len(masks) - 1``.  The walk goes
        forward along the links, one layer of entries per cell, and back
        from the last layer, whose viable symbols already lead to
        acceptance.  It steps and links as the search does, so no pair
        is stepped twice, and each (entry, masks) pair is walked once
        per table.
        """
        key = (entry, masks)
        got = self._supports.get(key)
        if got is not None:
            return got
        layers = [[entry]]
        for mask in masks[:-1]:
            nxt: dict[ViableEntry, None] = {}
            for e in layers[-1]:
                links = e.links
                todo = self.among(e, mask)
                while todo:
                    low = todo & -todo
                    todo ^= low
                    sym = low.bit_length() - 1
                    nxt[links[sym] or self.link(e, sym)] = None
            layers.append(list(nxt))
        out = [0] * len(masks)
        # live[e] masks the symbols of e's cell that lead e to acceptance.
        live: dict[ViableEntry, int] = {}
        last = len(masks) - 1
        for e in layers[last]:
            sup = self.among(e, masks[last])
            if sup:
                live[e] = sup
                out[last] |= sup
        for t in range(last - 1, -1, -1):
            for e in layers[t]:
                sup, links = 0, e.links
                todo = e.viable & masks[t]
                while todo:
                    low = todo & -todo
                    todo ^= low
                    if links[low.bit_length() - 1] in live:
                        sup |= low
                if sup:
                    live[e] = sup
                    out[t] |= sup
        got = self._supports[key] = tuple(out) if out[0] else ()
        return got


# --- compilation -------------------------------------------------------------

# A placed fragment: (first positions, last positions, nullable).  Its
# positions run from the number of bits made before its node up to the
# last position made, and their follow sets hold only its own positions.
Fragment = tuple[int, int, bool]


class _Positions:
    """The position construction over symbol classes, one fragment per
    node in post-order.

    A literal, and a union whose parts are all literals or such unions,
    is a pending class: the int mask of its symbol ids, with no position
    yet.  Its parent places it as one fresh position.  A concatenation
    links each part's last positions to the first positions of the next
    part, through nullable parts to the ones after them; a star or plus
    links its body's last positions to its first.  A union ORs its
    parts, its pending classes placed together as one position, and
    epsilon is ``(0, 0, True)``.  No node adds a position beyond
    one per placed class.  A nested intersection replaces its parts'
    positions, the last ones made, by their product (``product``).
    """

    def __init__(self):
        # Bit 0 is no position; a set holds it once it accepts.
        self.classes = [0]
        self.follow = [0]

    def table(self, root: Node) -> tuple[int, list[int], list[int]]:
        """The start set, classes and follow sets of the tree under
        ``root`` as one operand, bit 0 its end bit, from one post-order
        walk on an explicit stack; a repeated subtree gets its own
        positions at each occurrence.
        """
        classes, follow = self.classes, self.follow
        # One frame per inner node: its class, an iterator over the parts
        # still to walk, the values of those walked, and the number of
        # bits made before it, its lowest position if it makes any.  The
        # first frame concatenates the root alone, placing a root class.
        # A union ORs its literal parts into its class as it is entered.
        frames: list = [(Concat, iter((root,)), [], 1)]
        while True:
            kind, todo, kids, base = frames[-1]
            for child in todo:
                cls = child.__class__
                if cls is Lit:
                    kids.append(1 << child.sym.id)
                elif cls is Eps:
                    kids.append((0, 0, True))
                elif cls is Union:
                    mask, rest = 0, []
                    for part in child.parts:
                        if part.__class__ is Lit:
                            mask |= 1 << part.sym.id
                        else:
                            rest.append(part)
                    frames.append((cls, iter(rest), [mask] if mask else [], len(classes)))
                    break
                elif cls is Concat or cls is Inter or cls is Star or cls is Plus or cls is Opt:
                    parts = child.parts if cls is Concat or cls is Inter else (child.body,)
                    frames.append((cls, iter(parts), [], len(classes)))
                    break
                else:
                    raise TypeError(f"unknown node {child!r}")
            else:
                frames.pop()
                if kind is Union:
                    mask = reduce(or_, [kid for kid in kids if kid.__class__ is int], 0)
                    placed = [kid for kid in kids if kid.__class__ is not int]
                    if not placed:
                        frames[-1][2].append(mask)
                        continue
                    kids = placed + [mask] if mask else placed
                # Pending classes become positions, in the order of the parts.
                for i, kid in enumerate(kids):
                    if kid.__class__ is int:
                        q = len(classes)
                        classes.append(kid)
                        follow.append(0)
                        kids[i] = 1 << q, 1 << q, False
                if kind is Concat:
                    first, last, nullable = 0, 0, True
                    for f, l, n in kids:
                        if f:
                            bits = last
                            while bits:
                                low = bits & -bits
                                follow[low.bit_length() - 1] |= f
                                bits ^= low
                        if nullable:
                            first |= f
                        last = l | last if n else l
                        nullable = nullable and n
                    value = first, last, nullable
                elif kind is Union:
                    first, last, nullable = 0, 0, False
                    for f, l, n in kids:
                        first |= f
                        last |= l
                        nullable = nullable or n
                    value = first, last, nullable
                elif kind is Inter:
                    value = self.product(base, kids)
                else:
                    ((first, last, nullable),) = kids
                    if kind is not Opt and first:
                        bits = last
                        while bits:
                            low = bits & -bits
                            follow[low.bit_length() - 1] |= first
                            bits ^= low
                    value = first, last, nullable or kind is not Plus
                if not frames:
                    break
                frames[-1][2].append(value)
        first, last, nullable = value
        while last:
            low = last & -last
            follow[low.bit_length() - 1] |= 1
            last ^= low
        return first | nullable, classes, follow

    def product(self, lo: int, parts: Sequence[Fragment]) -> Fragment:
        """Replace the parts' positions, from ``lo`` up to the last one
        made, by the reachable product of their futures, trimmed to the
        positions that can still end it.

        A component is a distinct future of a part's position, its
        follow set and whether it ends the part, interned to a small
        int; the parts' start components are their first sets and
        nullability.  A tuple holds one component per part, starting at
        the start components.  From a tuple, each choice of one
        successor component per part whose entering classes share a
        symbol enters one product position, keyed by (the AND of those
        classes, the successor tuple); a component's entering class for
        a successor is the OR of the classes of its follow set's
        positions with that component.  A position's follow set is then
        the set its tuple enters, and it ends the product when every
        component of its tuple ends its part.
        """
        nullable = all(p[2] for p in parts)
        if lo == len(self.classes):
            return 0, 0, nullable
        start, moves, ends = self._components(lo, parts)
        classes, follow = self.classes, self.follow
        index = {start: 0}
        tuples = [start]
        keyed: dict[tuple[int, int], int] = {}
        entered: list[tuple[int, int]] = []  # (class, tuple) per position
        succ: list[list[int]] = []  # per tuple, the positions it enters
        for u in tuples:
            choices: list[tuple[int, tuple[int, ...]]] = [(-1, ())]
            for c in u:
                choices = [(m & cls, v + (d,)) for m, v in choices
                           for d, cls in moves[c] if m & cls]
            out = []
            for m, v in choices:
                t = index.setdefault(v, len(tuples))
                if t == len(tuples):
                    tuples.append(v)
                p = keyed.setdefault((m, t), len(entered))
                if p == len(entered):
                    entered.append((m, t))
                out.append(p)
            succ.append(out)
        # Keep the positions whose tuple can still end: any other would
        # put symbols that lead nowhere into read masks.
        ending = [all(ends[c] for c in v) for v in tuples]
        alive = ending[:]
        into: list[list[int]] = [[] for _ in tuples]
        for u, out in enumerate(succ):
            for p in out:
                into[entered[p][1]].append(u)
        todo = [t for t, ok in enumerate(alive) if ok]
        while todo:
            for u in into[todo.pop()]:
                if not alive[u]:
                    alive[u] = True
                    todo.append(u)
        new: dict[int, int] = {}
        for p, (m, t) in enumerate(entered):
            if alive[t]:
                new[p] = len(classes)
                classes.append(m)
        if not new:
            return 0, 0, nullable
        # A tuple enters each of its positions once, so a sum is an OR.
        enters = [sum(1 << new[p] for p in out if p in new) for out in succ]
        last = 0
        for p, q in new.items():
            t = entered[p][1]
            follow.append(enters[t])
            if ending[t]:
                last |= 1 << q
        return enters[0], last, nullable

    def _components(self, lo: int, parts: Sequence[Fragment]) -> tuple[
            tuple[int, ...], list[list[tuple[int, int]]], list[bool]]:
        """Take the parts' positions out, returning their start tuple and,
        per component, its moves and whether it ends its part.

        A component's moves pair each component its follow set's
        positions have with the OR of those positions' classes.  Futures
        are keyed on their follow sets, big ints, once per position; the
        product keys on component ids only.
        """
        classes, follow = self.classes, self.follow
        ends_at = {q for _, last, _ in parts for q in _bits(last)}
        keys = [(follow[q], q in ends_at) for q in range(lo, len(classes))]
        keys += [(first, n) for first, _, n in parts]
        ids: dict[tuple[int, bool], int] = {}
        comp = [ids.setdefault(key, len(ids)) for key in keys]
        moves: list[list[tuple[int, int]]] = []
        ends: list[bool] = []
        for nxt, end in ids:
            got: dict[int, int] = {}
            for q in _bits(nxt):
                d = comp[q - lo]
                got[d] = got.get(d, 0) | classes[q]
            moves.append(list(got.items()))
            ends.append(end)
        del classes[lo:], follow[lo:]
        return tuple(comp[len(keys) - len(parts):]), moves, ends


def compile_regex(r: Regex) -> Nfa:
    """Compile to an automaton with the same language.

    Each operand of an intersection at the root, or the whole tree
    otherwise, compiles to its own position table, each nested
    intersection the reachable product of its parts' positions: at most
    one position per class and tuple of the parts' components.  The
    tables are packed side by side into one ``Nfa``, each shifted past
    the ones before it.  A union of intersections is one operand; write
    it as an intersection of unions, as ``squarify_col_expr`` does, to
    keep its parts implicit.
    """
    node = r.node
    start = ends = 0
    classes, follow = [], []
    for part in node.parts if node.__class__ is Inter else (node,):
        s, cls, nxt = _Positions().table(part)
        at = len(classes)
        start |= s << at
        ends |= 1 << at
        classes += cls
        follow += [f << at for f in nxt] if at else nxt
    return Nfa(r.alphabet, start, classes, follow, ends)


# --- queries -------------------------------------------------------------------

def matches(auto: Nfa, w) -> bool:
    """True iff the word (string or symbol sequence) is accepted."""
    s = auto.start_set()
    for sym in symbols(auto.alphabet, w):
        if auto.is_dead(s):
            return False
        s = auto.step(s, sym.id)
    return auto.accepts(s)


def step(auto: Nfa, states, sym: TUnion[Symbol, str, int]):
    """One step of a state set on a symbol."""
    if isinstance(sym, Symbol):
        sym_id = auto.alphabet.symbol(sym.token).id
    elif isinstance(sym, str):
        sym_id = auto.alphabet.symbol(sym).id
    else:
        sym_id = sym
    return auto.step(states, sym_id)


def is_empty(r: Regex) -> bool:
    """True iff ``r`` matches no word at all.

    ``r`` compiles as one operand, a root intersection included, so
    every intersection in it is the exact product of its parts'
    positions, trimmed to the positions that can still end it; the
    language is then empty iff the start set cannot reach acceptance.
    The price of that one bit is the whole trimmed product: the build
    does not stop at the first ending tuple.
    """
    auto = Nfa(r.alphabet, *_Positions().table(r.node))
    return not auto.feasible(auto.start_set(), None)


def enumerate_language(auto: Nfa, max_len: int) -> list[str]:
    """All accepted words up to ``max_len``, shortest first, then by symbol id.

    Words are returned as concatenated tokens.  Each length is walked
    depth first on an explicit stack, one viable-symbol mask per
    position, so long words need no recursion.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    tokens = auto.alphabet.tokens
    every = (1 << len(tokens)) - 1
    table = ViableSymbols(auto)
    start = auto.start_set()
    out = [""] if auto.accepts(start) else []
    for target in range(1, max_len + 1):
        word = [0] * target
        todo = [0] * target
        entries: list = [None] * target
        entries[0] = table.entry(start, target - 1)
        todo[0] = table.among(entries[0], every)
        k = 0
        while True:
            mask = todo[k]
            if not mask:
                if k == 0:
                    break
                k -= 1
                continue
            low = mask & -mask
            sym = low.bit_length() - 1
            todo[k] = mask ^ low
            word[k] = sym
            if k + 1 < target:
                entry = entries[k]
                k += 1
                entries[k] = entry = entry.links[sym] or table.link(entry, sym)
                todo[k] = table.among(entry, every)
            else:
                out.append("".join(tokens[s] for s in word))
    return out
