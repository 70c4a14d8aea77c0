"""Epsilon-NFAs compiled from regex trees.

There are two automaton kinds, and one rule picks between them.  An
intersection at the root is an implicit product (``ProductAuto``) of
its parts' flat automata, with one state set tracked per part; every
other tree compiles to one flat NFA (``Nfa``) by Thompson's inductive
construction over symbol classes: a literal, or a union of literals
only, is one mask of symbols, placed on one labelled edge per symbol
with no epsilon-edge of its own.  Inside a flat NFA a
nested intersection becomes the explicit reachable product of its
parts' kernel closures, trimmed to the states that can reach
acceptance: each part's components are the distinct kernel closures of
its start state and of its labelled-edge targets, and a product state
holds one component per part and steps on symbols only, so the
product's only epsilon-edges lead from its accepting states to one exit.
Emptiness (``is_empty``) compiles flat whatever the root, so every
product it reads is exact.

State sets are integer bitmasks for flat automata and tuples of part
sets for products.  A flat set holds only kernel states:
those with a labelled out-edge and the accepting states, taken from the
epsilon-closure of the states reached.  The other states of a closure
can neither read a symbol nor accept, so leaving them out changes no
answer, and sets that differed only in them are equal.  A set with no
kernel state is empty and signals a dead prefix.  The constructor takes
the kernel closures of the start state and of every labelled-edge
target in one depth-first pass over the epsilon-graph's strongly
connected components, with at most one mask OR per epsilon-edge.

Every automaton reports, per state set, the symbols the set can read
(``readable``); any other symbol steps it to a dead set.
``ViableSymbols`` tabulates, per state set and number of symbols left,
which symbols keep a line alive, and never steps an unreadable symbol.
Its entries are the nodes of a lazily built DFA, each linked to its
successors' entries: the grid search and ``enumerate_language`` walk
the links, so a state set is hashed only at a walk's root and once per
new link.  The entries of one state set share its readable mask and
its successors, so each (state set, symbol) pair is stepped at most
once, whatever the number of symbols left.  The same entries answer the
backward half of REGULAR for one line at a time (``supports``): which
symbols of each cell's mask some accepting walk through all the masks
uses.
"""

from __future__ import annotations

from itertools import product as tuples
from typing import Iterable, Iterator, Sequence, Union as TUnion

from .records import record
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
    _fold,
    symbols,
)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Nfa:
    """Flat epsilon-NFA over symbol ids, stepping bitmasks of kernel states.

    The constructor builds the stepping tables from the kernel closures
    of the start state and the labelled-edge targets, all taken in one
    pass (``_kernel_closures``).
    """

    def __init__(
        self,
        alphabet: Alphabet,
        state_count: int,
        start: int,
        accepting: Iterable[int],
        epsilon_edges: Iterable[tuple[int, int]],
        labeled_edges: Iterable[tuple[int, int, int]],
    ):
        self.alphabet = alphabet
        self.state_count = state_count
        self.start = start
        self.accepting = frozenset(accepting)
        self.epsilon_edges = frozenset(epsilon_edges)
        self.labeled_edges = frozenset(labeled_edges)
        n = state_count
        nsyms = len(alphabet)
        if not 0 <= start < n:
            raise ValueError(f"start state {start} out of range")
        # own[s] is s's bit if s is a kernel state, else 0.
        own = [0] * n
        for s in self.accepting:
            if not 0 <= s < n:
                raise ValueError(f"accepting state {s} out of range")
            own[s] = 1 << s
        self._accept_mask = sum(1 << s for s in self.accepting)
        eps_adj: list[list[int]] = [[] for _ in range(n)]
        for s, t in self.epsilon_edges:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"epsilon edge {(s, t)} out of range")
            eps_adj[s].append(t)
        src = [0] * nsyms
        reads = [0] * n
        into: dict[int, int] = {}
        for s, a, t in self.labeled_edges:
            if not (0 <= s < n and 0 <= t < n and 0 <= a < nsyms):
                raise ValueError(f"labelled edge {(s, a, t)} out of range")
            bit = 1 << s
            own[s] = bit
            src[a] |= bit
            reads[s] |= 1 << a
            into[t] = into.get(t, 0) | bit
        closures = _kernel_closures(eps_adj, own, {start, *into})
        trans: list[dict[int, int]] = [{} for _ in range(n)]
        for s, a, t in self.labeled_edges:
            row = trans[s]
            got = row.get(a)
            row[a] = closures[t] if got is None else got | closures[t]
        self._trans = trans
        self._src = src
        self._reads = reads
        # One (closure of t, sources of the edges into t) pair per edge
        # target t: a state is one symbol before a layer iff one of its
        # edges leads to a closure that meets the layer.
        self._preds = [(closures[t], sources) for t, sources in into.items()]
        self._start_set = closures[self.start]
        self._reach_layers = [self._accept_mask]
        self._reach_any: int | None = None

    # -- stepping ------------------------------------------------------

    def start_set(self) -> int:
        return self._start_set

    def step(self, states: int, sym_id: int) -> int:
        out = 0
        trans = self._trans
        todo = states & self._src[sym_id]
        while todo:
            low = todo & -todo
            out |= trans[low.bit_length() - 1][sym_id]
            todo ^= low
        return out

    def readable(self, states: int) -> int:
        """Mask of the symbols some state in ``states`` has an edge on."""
        out = 0
        reads = self._reads
        while states:
            low = states & -states
            out |= reads[low.bit_length() - 1]
            states ^= low
        return out

    def is_dead(self, states: int) -> bool:
        return states == 0

    def accepts(self, states: int) -> bool:
        return bool(states & self._accept_mask)

    def _preds_of(self, layer: int) -> int:
        out = 0
        for closure, sources in self._preds:
            if closure & layer:
                out |= sources
        return out

    def reach_in(self, steps: int | None) -> int:
        """Mask of states with some accepting path of exactly ``steps``
        symbols, or of any length when ``steps`` is None."""
        if steps is None:
            if self._reach_any is None:
                alive = frontier = self._accept_mask
                while frontier:
                    grown = self._preds_of(frontier)
                    frontier = grown & ~alive
                    alive |= grown
                self._reach_any = alive
            return self._reach_any
        layers = self._reach_layers
        while len(layers) <= steps:
            layers.append(self._preds_of(layers[-1]))
        return layers[steps]

    def feasible(self, states: int, steps: int | None) -> bool:
        """Can some state in ``states`` accept after exactly ``steps``
        more symbols (after any number when ``steps`` is None)?"""
        return states != 0 and bool(states & self.reach_in(steps))


def _kernel_closures(
    eps_adj: list[list[int]], own: list[int], roots: set[int],
) -> dict[int, int]:
    """The kernel part of the epsilon-closure of each root.

    ``own[s]`` is state s's kernel bit, or 0.  A closure is the state's
    own bit ORed with its epsilon-successors' closures, so one iterative
    depth-first pass over the epsilon-graph (Tarjan's strongly connected
    components, as in Nuutila's transitive closure) takes them all with
    at most one OR per edge.  Every state of a component shares its
    root's mask, and a state whose mask is still 0 shares its
    successor's instead of ORing a copy.  A state with no epsilon-out-
    edge is its own component and closes with no frame.  Closed states
    carry the order number ``done``, which is above every live one, so
    they never lower a low link.
    """
    n = len(own)
    done = n
    order = [-1] * n
    low = [0] * n
    mask = own[:]
    comp: list[int] = []  # Tarjan's stack of open states
    count = 0
    for r in roots:
        if order[r] != -1:
            continue
        if not eps_adj[r]:
            order[r] = done
            continue
        order[r] = low[r] = count
        count += 1
        comp.append(r)
        frames = [(r, iter(eps_adj[r]))]
        while frames:
            v, edges = frames[-1]
            for w in edges:
                o = order[w]
                if o == -1:
                    if eps_adj[w]:
                        order[w] = low[w] = count
                        count += 1
                        comp.append(w)
                        frames.append((w, iter(eps_adj[w])))
                        break
                    order[w] = o = done
                if o == done:
                    got, mine = mask[w], mask[v]
                    if got and got is not mine:
                        mask[v] = got | mine if mine else got
                elif o < low[v]:
                    low[v] = o
            else:
                frames.pop()
                got = mask[v]
                if low[v] == order[v]:
                    while True:
                        u = comp.pop()
                        mask[u] = got
                        order[u] = done
                        if u == v:
                            break
                if frames:
                    # Fold v into its parent: its final mask if closed,
                    # else the part gathered so far, since v then shares
                    # the parent's component and its root ORs in the rest.
                    u = frames[-1][0]
                    mine = mask[u]
                    if got and got is not mine:
                        mask[u] = got | mine if mine else got
                    if low[v] < low[u]:
                        low[u] = low[v]
    return {r: mask[r] for r in roots}


@record
class ProductAuto:
    """Implicit intersection: one operand automaton per child.

    A state set is the tuple of per-child sets; the joint reachable set
    is exactly their cartesian product, because the operands step in
    lockstep on the same symbols.
    """

    children: tuple[Nfa, ...]

    @property
    def alphabet(self) -> Alphabet:
        return self.children[0].alphabet

    def start_set(self):
        return tuple(c.start_set() for c in self.children)

    def step(self, states, sym_id: int):
        return tuple(c.step(s, sym_id) for c, s in zip(self.children, states))

    def readable(self, states) -> int:
        out = -1
        for c, s in zip(self.children, states):
            out &= c.readable(s)
        return out

    def is_dead(self, states) -> bool:
        return any(c.is_dead(s) for c, s in zip(self.children, states))

    def accepts(self, states) -> bool:
        return all(c.accepts(s) for c, s in zip(self.children, states))

    def feasible(self, states, steps: int | None) -> bool:
        # Sound overapproximation: each child needs its own witness word.
        return all(c.feasible(s, steps) for c, s in zip(self.children, states))


Automaton = TUnion[Nfa, ProductAuto]


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

    def __init__(self, auto: Automaton):
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

class _Builder:
    """Thompson's construction over symbol classes, one fragment per node
    in post-order.

    A literal, and a union whose parts are all literals or such unions,
    is a pending class: the int mask of its symbol ids, with no states
    yet.  A concatenation of classes and such concatenations is a
    pending run: the list of its classes.  Their parent places them.  A
    concatenation chains each run of classes on labelled edges, from the
    previous part's exit (or a fresh state) through fresh states to the
    next part's entry (or a fresh state).  A union puts its class on
    labelled edges between its own two states, and chains each of its
    runs from the one to the other.  A star of a class or run chains it
    from one state back to the same state, its entry and exit.  A plus
    or opt of a class reads it from its entry to its exit, with one
    epsilon-edge back (plus) or across (opt); a plus with no
    epsilon-edge would read the class twice, on one more labelled edge
    per symbol.  Every other parent first gives the class or run states
    (``place``).  Each chained edge contracts an epsilon-edge of the
    classic construction whose fresh end has one in-edge or one
    out-edge, so the language is unchanged, and no union part or
    literal costs an epsilon-edge.

    A placed fragment is (first, entry, exit).  Its states run from
    ``first`` up to the first state of the next fragment built, and its
    edges are the last ones added.  Its parent adds edges only into its entry and
    out of its exit, though the entry may have in-edges and the exit
    out-edges of its own.  A nested intersection replaces its parts'
    fragments by their explicit product (``_closure_product``): one state
    per reachable tuple of the parts' kernel closures that can still
    accept, labelled edges between them, and one epsilon-edge from each
    accepting tuple to a fresh exit.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.count = 0
        self.eps: list[tuple[int, int]] = []
        self.lab: list[tuple[int, int, int]] = []

    def fresh(self) -> int:
        s = self.count
        self.count = s + 1
        return s

    def edges(self, s: int, mask: int, t: int) -> None:
        """One labelled edge from s to t per symbol of the class."""
        lab = self.lab
        while mask:
            low = mask & -mask
            lab.append((s, low.bit_length() - 1, t))
            mask ^= low

    def place(self, kid: TUnion[int, list[int], tuple[int, int, int]]) -> tuple[int, int, int]:
        """A pending class or run chained through fresh states; a placed
        fragment as is."""
        if isinstance(kid, tuple):
            return kid
        s, t = self.chain(None, kid if isinstance(kid, list) else [kid], None)
        return s, s, t

    def chain(self, src: int | None, run: Sequence[int], dst: int | None) -> tuple[int, int]:
        """Chain a run of classes from ``src`` through fresh states to
        ``dst``, either end fresh when None; return both ends."""
        if src is None:
            src = self.fresh()
        u = src
        for mask in run[:-1]:
            v = self.fresh()
            self.edges(u, mask, v)
            u = v
        if dst is None:
            dst = self.fresh()
        self.edges(u, run[-1], dst)
        return src, dst

    def fragment(self, node: Node, kids: Sequence) -> TUnion[int, list[int], tuple[int, int, int]]:
        if isinstance(node, Lit):
            return 1 << node.sym.id
        if isinstance(node, Eps):
            s, t = self.fresh(), self.fresh()
            self.eps.append((s, t))
            return s, s, t
        if isinstance(node, Concat):
            return self.concat(kids)
        if isinstance(node, Inter):
            return self.product([self.place(k) for k in kids])
        if isinstance(node, Union):
            mask = 0
            runs, placed = [], []
            for kid in kids:
                if isinstance(kid, int):
                    mask |= kid
                elif isinstance(kid, list):
                    runs.append(kid)
                else:
                    placed.append(kid)
            if not runs and not placed:
                return mask
            s, t = self.fresh(), self.fresh()
            self.edges(s, mask, t)
            for run in runs:
                self.chain(s, run, t)
            for _, ps, pt in placed:
                self.eps.extend([(s, ps), (pt, t)])
            return (placed[0][0] if placed else s), s, t
        body = kids[0]
        if isinstance(node, Star) and not isinstance(body, tuple):
            s = self.fresh()
            self.chain(s, body if isinstance(body, list) else [body], s)
            return s, s, s
        if isinstance(node, (Plus, Opt)) and isinstance(body, int):
            s, t = self.fresh(), self.fresh()
            self.edges(s, body, t)
            self.eps.append((t, s) if isinstance(node, Plus) else (s, t))
            return s, s, t
        if isinstance(node, (Star, Plus, Opt)):
            first, bs, bt = self.place(body)
            s, t = self.fresh(), self.fresh()
            self.eps.extend([(s, bs), (bt, t)])
            if not isinstance(node, Opt):
                self.eps.append((bt, bs))  # repeat
            if not isinstance(node, Plus):
                self.eps.append((s, t))  # skip
            return first, s, t
        raise TypeError(f"unknown node {node!r}")

    def concat(self, kids: Sequence) -> TUnion[list[int], tuple[int, int, int]]:
        """Join placed parts by epsilon-edges and chain the runs of
        classes between them; with no placed part, the pending run."""
        first = entry = exit_state = None
        run: list[int] = []
        for kid in kids:
            if isinstance(kid, int):
                run.append(kid)
                continue
            if isinstance(kid, list):
                run.extend(kid)
                continue
            kid_first, kid_entry, kid_exit = kid
            if run:
                src, _ = self.chain(exit_state, run, kid_entry)
                run = []
            else:
                src = kid_entry
                if exit_state is not None:
                    self.eps.append((exit_state, kid_entry))
            if first is None:
                first, entry = kid_first, src
            exit_state = kid_exit
        if first is None:
            return run
        if run:
            _, exit_state = self.chain(exit_state, run, None)
        return first, entry, exit_state

    def product(self, kids: Sequence[tuple[int, int, int]]) -> tuple[int, int, int]:
        """Take the parts' fragments, the last states and edges built,
        out of the automaton and put their closure product in place, with
        one fresh exit that every accepting product state reaches by an
        epsilon-edge.

        The parts' states tile the range from their lowest first state
        on, and every edge whose source lies in that range belongs to
        one of them."""
        first = min(lo for lo, _, _ in kids)
        eps, lab = self.eps, self.lab
        i, j = len(eps), len(lab)
        while i and eps[i - 1][0] >= first:
            i -= 1
        while j and lab[j - 1][0] >= first:
            j -= 1
        count, finals, sub_lab = _closure_product(
            self.count - first, [(s - first, t - first) for _, s, t in kids],
            [(u - first, v - first) for u, v in eps[i:]],
            [(u - first, a, v - first) for u, a, v in lab[j:]])
        del eps[i:], lab[j:]
        lab.extend((first + u, a, first + v) for u, a, v in sub_lab)
        exit_state = first + count
        self.count = exit_state + 1
        for f in finals:
            eps.append((first + f, exit_state))
        return first, first, exit_state


def _thompson(node: Node, alphabet: Alphabet) -> Nfa:
    b = _Builder(alphabet)
    # Unshared: every occurrence of a repeated subtree needs its own states.
    _, start, accept = b.place(_fold(node, b.fragment, shared=False))
    return Nfa(alphabet, b.count, start, [accept], b.eps, b.lab)


def _closure_product(
    size: int,
    parts: Sequence[tuple[int, int]],
    eps: Sequence[tuple[int, int]],
    lab: Sequence[tuple[int, int, int]],
) -> tuple[int, list[int], list[tuple[int, int, int]]]:
    """Reachable synchronous product of the parts' kernel closures,
    trimmed to the states that can reach acceptance.

    The parts are disjoint fragments of one automaton of ``size``
    states with these epsilon and labelled edges, each given as (start,
    accepting state).  A part's components are the distinct kernel
    closures of its start state and of its labelled-edge targets, all
    taken in one pass (``_kernel_closures``); with no epsilon-edge a
    state's closure is its own kernel bit.  Targets with equal closures
    have the same future, so they are one component.  A product state
    holds one component per part and starts at the start closures.  On
    a symbol it steps to every tuple of the components of the targets
    its components' kernel states reach on that symbol, so the product
    has no epsilon-edge and at most the product over the parts of
    (targets + 1) states.  It accepts when every component holds its
    part's accepting state.  The result is (state count, accepting
    states, labelled edges), with start state 0.
    """
    own = [0] * size
    for _, accept in parts:
        own[accept] = 1 << accept
    for s, _, _ in lab:
        own[s] = 1 << s
    if eps:
        eps_adj: list[list[int]] = [[] for _ in range(size)]
        for s, t in eps:
            eps_adj[s].append(t)
        closures = _kernel_closures(eps_adj, own, {*(s for s, _ in parts), *(t for _, _, t in lab)})
    else:
        closures = own
    # Per state, per symbol: the components of its targets.  An empty
    # closure can neither read nor accept, so it is left out.  The parts'
    # states are disjoint, so one table serves them all.
    reach: dict[int, dict[int, set[int]]] = {}
    for s, a, t in lab:
        if closures[t]:
            reach.setdefault(s, {}).setdefault(a, set()).add(closures[t])
    # A component of one kernel state moves as that state does.
    moves = {1 << s: got for s, got in reach.items()}

    def moves_of(comp: int) -> dict[int, set[int]]:
        """Per symbol, the components that a component steps to."""
        got: dict[int, set[int]] = {}
        for s in _bits(comp):
            for a, cs in reach.get(s, {}).items():
                got.setdefault(a, set()).update(cs)
        moves[comp] = got
        return got

    start = [closures[s] for s, _ in parts]
    finals = [1 << accept for _, accept in parts]
    index = {tuple(start): 0}
    order = list(index)
    edges: list[tuple[int, int, int]] = []
    accepting = []
    for ui, u in enumerate(order):
        steps = [moves[c] if c in moves else moves_of(c) for c in u]
        if all(c & f for c, f in zip(u, finals)):
            accepting.append(ui)
        for a, cs in steps[0].items():
            rows = [cs]
            for other in steps[1:]:
                cs = other.get(a)
                if cs is None:
                    break
                rows.append(cs)
            else:
                for v in tuples(*rows):
                    vi = index.get(v)
                    if vi is None:
                        vi = index[v] = len(order)
                        order.append(v)
                    edges.append((ui, a, vi))
    # Keep the states that can reach acceptance, in their order: a state
    # that cannot would put symbols that lead nowhere into read masks.
    into: list[list[int]] = [[] for _ in order]
    for s, _, t in edges:
        into[t].append(s)
    alive = set(accepting)
    todo = list(alive)
    while todo:
        for s in into[todo.pop()]:
            if s not in alive:
                alive.add(s)
                todo.append(s)
    if 0 not in alive:
        return 1, [], []
    new = {s: i for i, s in enumerate(sorted(alive))}
    # The source of an edge into a kept state is kept too.
    return (len(new), [new[s] for s in accepting],
            [(new[s], a, new[t]) for s, a, t in edges if t in new])


def compile_regex(r: Regex) -> Automaton:
    """Compile to an automaton with the same language.

    An intersection at the root becomes a ``ProductAuto`` of its parts,
    each compiled flat; everything else, nested intersections included,
    compiles to one flat ``Nfa``, where each intersection becomes the
    explicit reachable product of its parts' kernel closures.  That
    product stays polynomial in the operand sizes: at most the product
    over the parts of (labelled-edge targets + 1) states, plus one
    exit.  A union of intersections is therefore flat; write it as an
    intersection of unions, as ``squarify_col_expr`` does, to keep its
    parts implicit.
    """
    node, alphabet = r.node, r.alphabet
    if isinstance(node, Inter):
        return ProductAuto(tuple(_thompson(p, alphabet) for p in node.parts))
    return _thompson(node, alphabet)


# --- queries -------------------------------------------------------------------

def matches(auto: Automaton, w) -> bool:
    """True iff the word (string or symbol sequence) is accepted."""
    s = auto.start_set()
    for sym in symbols(auto.alphabet, w):
        if auto.is_dead(s):
            return False
        s = auto.step(s, sym.id)
    return auto.accepts(s)


def step(auto: Automaton, states, sym: TUnion[Symbol, str, int]):
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

    ``r`` compiles to one flat automaton, a root intersection included,
    so every intersection in it is the exact product of its parts'
    kernel closures, trimmed to the states that can still accept; the
    language is then empty iff the start set cannot reach acceptance.
    The price of that one bit is the whole trimmed product: the build
    does not stop at the first accepting tuple.
    """
    auto = _thompson(r.node, r.alphabet)
    return not auto.feasible(auto.start_set(), None)


def enumerate_language(auto: Automaton, max_len: int) -> list[str]:
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
