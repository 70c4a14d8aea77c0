"""Regular expressions over explicit, finite alphabets.

Expressions are immutable trees built from literals, epsilon, union,
concatenation, intersection and the closure operators star/plus/opt.
Intersection is a first-class node: it is never rewritten away (the
automata layer runs a product construction instead).

Concrete syntax, used by :func:`parse` and :func:`format_regex`:

    expr   := inter ('|' inter)*
    inter  := concat ('&' concat)*
    concat := factor+
    factor := atom ('*' | '+' | '?')*
    atom   := symbol | '(' expr ')' | '_'
    symbol := one bare printable character | '{' token '}'

Whitespace between tokens is ignored and ``#`` starts a comment that
runs to the end of the line.  ``_`` denotes the empty string.  Symbol
tokens longer than one character (or single characters that collide
with an operator) are written in braces, e.g. ``{[B,q0]}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union as TUnion

RESERVED_CHARS = frozenset("|&*+?(){}_#")


class RegexSyntaxError(ValueError):
    """Raised when regex text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ValueError):
    """Raised when a symbol token is not part of the alphabet in use."""

    def __init__(self, token: str, position: int | None = None):
        at = "" if position is None else f" (at position {position})"
        super().__init__(f"unknown symbol {token!r}{at}")
        self.token = token


@dataclass(frozen=True, slots=True)
class Symbol:
    """One alphabet symbol: an interned token plus its alphabet position."""

    token: str
    id: int


def _check_token(token: str) -> None:
    if not token:
        raise ValueError("symbol token must be nonempty")
    if any(c.isspace() for c in token):
        raise ValueError(f"symbol token {token!r} contains whitespace")
    if "{" in token or "}" in token:
        raise ValueError(f"symbol token {token!r} contains a brace")


class Alphabet:
    """An ordered, duplicate-free list of symbols; ids are positions."""

    __slots__ = ("symbols", "tokens", "_by_token")

    def __init__(self, tokens: Iterable[TUnion[str, Symbol]]):
        syms = []
        for i, tok in enumerate(tokens):
            if isinstance(tok, Symbol):
                tok = tok.token
            _check_token(tok)
            syms.append(Symbol(tok, i))
        if not syms:
            raise ValueError("alphabet must contain at least one symbol")
        self.symbols: tuple[Symbol, ...] = tuple(syms)
        self.tokens: tuple[str, ...] = tuple(s.token for s in syms)
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("alphabet contains duplicate tokens")
        self._by_token = {s.token: s for s in self.symbols}

    def symbol(self, token: str) -> Symbol:
        try:
            return self._by_token[token]
        except KeyError:
            raise UnknownSymbolError(token) from None

    def __contains__(self, token: str) -> bool:
        return token in self._by_token

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.tokens)})"

    def compatible(self, other: "Alphabet") -> bool:
        return self is other or self.tokens == other.tokens


# --- AST nodes ------------------------------------------------------------

class Node:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Eps(Node):
    pass


@dataclass(frozen=True, slots=True)
class Lit(Node):
    sym: Symbol


@dataclass(frozen=True, slots=True)
class Concat(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Union(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Inter(Node):
    parts: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Star(Node):
    body: Node


@dataclass(frozen=True, slots=True)
class Plus(Node):
    body: Node


@dataclass(frozen=True, slots=True)
class Opt(Node):
    body: Node


@dataclass(frozen=True)
class Regex:
    """An AST plus the alphabet its literals are drawn from."""

    node: Node
    alphabet: Alphabet

    def __or__(self, other: "Regex") -> "Regex":
        return union_([self, other])

    def __and__(self, other: "Regex") -> "Regex":
        return inter([self, other])

    def __str__(self) -> str:
        return format_regex(self)


# --- constructors ----------------------------------------------------------

def _shared_alphabet(parts: Sequence[Regex]) -> Alphabet:
    first = parts[0].alphabet
    for p in parts[1:]:
        if not first.compatible(p.alphabet):
            raise ValueError("subexpressions use different alphabets")
    return first


def epsilon(alphabet: Alphabet) -> Regex:
    return Regex(Eps(), alphabet)


def lit(alphabet: Alphabet, token: str) -> Regex:
    return Regex(Lit(alphabet.symbol(token)), alphabet)


def word(alphabet: Alphabet, tokens: TUnion[str, Iterable[str]]) -> Regex:
    """Concatenation of literals; a plain string is one token per character."""
    syms = [alphabet.symbol(t) for t in tokens]
    if not syms:
        return epsilon(alphabet)
    if len(syms) == 1:
        return Regex(Lit(syms[0]), alphabet)
    return Regex(Concat(tuple(Lit(s) for s in syms)), alphabet)


def concat(parts: Sequence[Regex]) -> Regex:
    if not parts:
        raise ValueError("concat of nothing; use epsilon()")
    alphabet = _shared_alphabet(parts)
    flat: list[Node] = []
    for p in parts:
        if isinstance(p.node, Concat):
            flat.extend(p.node.parts)
        else:
            flat.append(p.node)
    if len(flat) == 1:
        return Regex(flat[0], alphabet)
    return Regex(Concat(tuple(flat)), alphabet)


def union_(parts: Sequence[Regex]) -> Regex:
    if not parts:
        raise ValueError("union of nothing")
    alphabet = _shared_alphabet(parts)
    flat: list[Node] = []
    for p in parts:
        if isinstance(p.node, Union):
            flat.extend(p.node.parts)
        else:
            flat.append(p.node)
    if len(flat) == 1:
        return Regex(flat[0], alphabet)
    return Regex(Union(tuple(flat)), alphabet)


def inter(parts: Sequence[Regex]) -> Regex:
    if not parts:
        raise ValueError("intersection of nothing")
    alphabet = _shared_alphabet(parts)
    flat: list[Node] = []
    for p in parts:
        if isinstance(p.node, Inter):
            flat.extend(p.node.parts)
        else:
            flat.append(p.node)
    if len(flat) == 1:
        return Regex(flat[0], alphabet)
    return Regex(Inter(tuple(flat)), alphabet)


def star(r: Regex) -> Regex:
    return Regex(Star(r.node), r.alphabet)


def plus(r: Regex) -> Regex:
    return Regex(Plus(r.node), r.alphabet)


def opt(r: Regex) -> Regex:
    return Regex(Opt(r.node), r.alphabet)


def symbols(alphabet: Alphabet, w: TUnion[str, Sequence[TUnion[str, Symbol]]]) -> tuple[Symbol, ...]:
    """Normalise a word: a plain string is one symbol per character."""
    if isinstance(w, str):
        return tuple(alphabet.symbol(c) for c in w)
    out = []
    for item in w:
        if isinstance(item, Symbol):
            got = alphabet.symbol(item.token)
            if got != item:
                raise UnknownSymbolError(item.token)
            out.append(got)
        else:
            out.append(alphabet.symbol(item))
    return tuple(out)


# --- structural predicates --------------------------------------------------

def _nullable(node: Node) -> bool:
    if isinstance(node, Eps):
        return True
    if isinstance(node, Lit):
        return False
    if isinstance(node, Concat):
        return all(_nullable(p) for p in node.parts)
    if isinstance(node, Union):
        return any(_nullable(p) for p in node.parts)
    if isinstance(node, Inter):
        return all(_nullable(p) for p in node.parts)
    if isinstance(node, (Star, Opt)):
        return True
    if isinstance(node, Plus):
        return _nullable(node.body)
    raise TypeError(f"unknown node {node!r}")


def is_positive(r: Regex) -> bool:
    """True iff the empty string does not match ``r``."""
    return not _nullable(r.node)


def used_symbols(r: Regex) -> set[Symbol]:
    seen: set[int] = set()
    out: set[Symbol] = set()

    def walk(node: Node) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Lit):
            out.add(node.sym)
        elif isinstance(node, (Concat, Union, Inter)):
            for p in node.parts:
                walk(p)
        elif isinstance(node, (Star, Plus, Opt)):
            walk(node.body)

    walk(r.node)
    return out


def apply_homomorphism(
    r: Regex,
    images: Mapping[Symbol, TUnion[str, Sequence[TUnion[str, Symbol]]]],
    target: Alphabet,
) -> Regex:
    """Replace every literal by the concatenation of its image.

    Operators are preserved.  The result denotes the image language
    exactly whenever the images form a code (e.g. distinct fixed-length
    blocks); with intersection nodes present this is also required for
    exactness, since arbitrary homomorphisms do not commute with
    intersection.
    """
    replacement: dict[Symbol, Node] = {}
    for sym, image in images.items():
        toks = symbols(target, image)
        if not toks:
            raise ValueError(f"image of {sym.token!r} is empty")
        replacement[sym] = Lit(toks[0]) if len(toks) == 1 else Concat(tuple(Lit(t) for t in toks))

    memo: dict[int, Node] = {}

    def walk(node: Node) -> Node:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Eps):
            new: Node = node
        elif isinstance(node, Lit):
            try:
                new = replacement[node.sym]
            except KeyError:
                raise ValueError(f"no image for symbol {node.sym.token!r}") from None
        elif isinstance(node, Concat):
            parts: list[Node] = []
            for p in node.parts:
                q = walk(p)
                if isinstance(q, Concat):
                    parts.extend(q.parts)
                else:
                    parts.append(q)
            new = Concat(tuple(parts))
        elif isinstance(node, Union):
            new = Union(tuple(walk(p) for p in node.parts))
        elif isinstance(node, Inter):
            new = Inter(tuple(walk(p) for p in node.parts))
        elif isinstance(node, Star):
            new = Star(walk(node.body))
        elif isinstance(node, Plus):
            new = Plus(walk(node.body))
        elif isinstance(node, Opt):
            new = Opt(walk(node.body))
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[id(node)] = new
        return new

    return Regex(walk(r.node), target)


# --- direct membership (reference semantics) --------------------------------

def regex_matches(r: Regex, w: TUnion[str, Sequence[TUnion[str, Symbol]]]) -> bool:
    """Membership by structural recursion on the AST.

    Independent of the automata layer; used as the reference oracle and
    for cheap checks on very large expression trees.  Cost grows with
    ``len(w)**3`` per node, so keep the words short.
    """
    wsyms = symbols(r.alphabet, w)
    n = len(wsyms)
    full = (0, n)
    memo: dict[int, frozenset[tuple[int, int]]] = {}

    def join(a: frozenset, b: frozenset) -> frozenset:
        by_start: dict[int, list[int]] = {}
        for (i, j) in b:
            by_start.setdefault(i, []).append(j)
        out = set()
        for (i, j) in a:
            for k in by_start.get(j, ()):
                out.add((i, k))
        return frozenset(out)

    def closure(body: frozenset) -> frozenset:
        spans = set((i, i) for i in range(n + 1))
        frontier = set(spans)
        while frontier:
            new = set()
            for (i, j) in frontier:
                for (j2, k) in body:
                    if j2 == j and (i, k) not in spans:
                        new.add((i, k))
            spans |= new
            frontier = new
        return frozenset(spans)

    def spans(node: Node) -> frozenset:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Eps):
            s = frozenset((i, i) for i in range(n + 1))
        elif isinstance(node, Lit):
            s = frozenset((i, i + 1) for i in range(n) if wsyms[i] == node.sym)
        elif isinstance(node, Concat):
            s = spans(node.parts[0])
            for p in node.parts[1:]:
                s = join(s, spans(p))
        elif isinstance(node, Union):
            acc: set = set()
            for p in node.parts:
                acc |= spans(p)
            s = frozenset(acc)
        elif isinstance(node, Inter):
            s = spans(node.parts[0])
            for p in node.parts[1:]:
                s = s & spans(p)
        elif isinstance(node, Star):
            s = closure(spans(node.body))
        elif isinstance(node, Plus):
            body = spans(node.body)
            s = join(body, closure(body))
        elif isinstance(node, Opt):
            s = spans(node.body) | frozenset((i, i) for i in range(n + 1))
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[id(node)] = s
        return s

    return full in spans(r.node)


# --- printing ----------------------------------------------------------------

_PREC_UNION, _PREC_INTER, _PREC_CONCAT, _PREC_POSTFIX = 0, 1, 2, 3


def _token_text(sym: Symbol) -> str:
    t = sym.token
    if len(t) == 1 and t not in RESERVED_CHARS:
        return t
    return "{" + t + "}"


def format_regex(r: Regex) -> str:
    """Render with canonical parenthesisation; reparses to an equal AST."""
    memo: dict[int, tuple[str, int]] = {}

    def render(node: Node) -> tuple[str, int]:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Eps):
            out = ("_", _PREC_POSTFIX)
        elif isinstance(node, Lit):
            out = (_token_text(node.sym), _PREC_POSTFIX)
        elif isinstance(node, Union):
            out = ("|".join(_child(p, _PREC_UNION) for p in node.parts), _PREC_UNION)
        elif isinstance(node, Inter):
            out = ("&".join(_child(p, _PREC_INTER) for p in node.parts), _PREC_INTER)
        elif isinstance(node, Concat):
            out = ("".join(_child(p, _PREC_CONCAT) for p in node.parts), _PREC_CONCAT)
        elif isinstance(node, (Star, Plus, Opt)):
            op = "*" if isinstance(node, Star) else "+" if isinstance(node, Plus) else "?"
            body, prec = render(node.body)
            if prec < _PREC_POSTFIX:
                body = "(" + body + ")"
            out = (body + op, _PREC_POSTFIX)
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[id(node)] = out
        return out

    def _child(node: Node, parent_prec: int) -> str:
        text, prec = render(node)
        if prec < parent_prec:
            return "(" + text + ")"
        return text

    return render(r.node)[0]


# --- parsing ------------------------------------------------------------------

class _Lexer:
    """Reads regex text one character at a time.  Whitespace and ``#``
    comments are skipped once at the start and after each token taken,
    so ``pos`` always rests on the next token and ``peek`` reads it."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._skip()

    def _skip(self) -> None:
        text, n, pos = self.text, len(self.text), self.pos
        while pos < n:
            c = text[pos]
            if c.isspace():
                pos += 1
            elif c == "#":
                pos = text.find("\n", pos)
                if pos == -1:
                    pos = n
            else:
                break
        self.pos = pos

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> None:
        """Consume the character ``peek`` returned."""
        self.pos += 1
        self._skip()

    def take_braced(self) -> tuple[str, int]:
        """Consume a ``{token}`` starting at the ``{`` ``peek`` returned."""
        start = self.pos
        end = self.text.find("}", start + 1)
        if end == -1:
            raise RegexSyntaxError("unterminated '{' token", start)
        token = self.text[start + 1:end]
        if not token:
            raise RegexSyntaxError("empty symbol token", start)
        self.pos = end + 1
        self._skip()
        return token, start


MAX_NESTING = 200
_TOO_DEEP = f"nested too deeply (more than {MAX_NESTING} levels)"


def _build(make, kind: type, parts: list[tuple[Regex, int]]) -> tuple[Regex, int]:
    """Join two or more parts with ``make`` and return the result with its
    depth, one more than its deepest part's."""
    nodes, depths = zip(*parts)
    r = make(nodes)
    if len(r.node.parts) == len(nodes):
        return r, max(depths) + 1
    # A part of the same kind was spliced into the new node: it adds no level.
    return r, 1 + max(d - isinstance(p.node, kind) for p, d in parts)


def parse(text: str, alphabet: Alphabet) -> Regex:
    """Parse regex text over the given alphabet.

    The parser keeps one frame per open parenthesis on an explicit
    stack.  An open parenthesis, a postfix operator and a union,
    intersection or concatenation node each nest one level: more than
    ``MAX_NESTING`` levels around any atom raise ``RegexSyntaxError``,
    because the walks over the tree (compiling, printing, reference
    matching) recurse once per level.
    """
    lx = _Lexer(text)
    # Per open group: the union and intersection operands finished so
    # far and the factors of the concatenation being read, each with
    # the depth of its tree.
    stack: list[tuple[list, list, list]] = []
    unions: list[tuple[Regex, int]] = []
    inters: list[tuple[Regex, int]] = []
    factors: list[tuple[Regex, int]] = []
    level = 0
    while True:
        c = lx.peek()
        if c is None or c in "|&)":
            if not factors:
                what = "end of input" if c is None else repr(c)
                raise RegexSyntaxError(f"unexpected {what}", lx.pos)
            inters.append(factors[0] if len(factors) == 1 else _build(concat, Concat, factors))
            factors = []
            if c == "&":
                lx.take()
                continue
            unions.append(inters[0] if len(inters) == 1 else _build(inter, Inter, inters))
            inters = []
            if c == "|":
                lx.take()
                continue
            r, level = unions[0] if len(unions) == 1 else _build(union_, Union, unions)
            if c is None:
                if stack:
                    raise RegexSyntaxError("expected ')'", lx.pos)
                if level > MAX_NESTING:
                    raise RegexSyntaxError(_TOO_DEEP, lx.pos)
                return r
            if not stack:
                raise RegexSyntaxError("unexpected ')'", lx.pos)
            lx.take()
            unions, inters, factors = stack.pop()
            if len(stack) + level > MAX_NESTING:
                raise RegexSyntaxError(_TOO_DEEP, lx.pos)
        elif c == "(":
            if len(stack) == MAX_NESTING:
                raise RegexSyntaxError(_TOO_DEEP, lx.pos)
            lx.take()
            stack.append((unions, inters, factors))
            unions, inters, factors = [], [], []
            continue
        elif c == "_":
            lx.take()
            r = epsilon(alphabet)
        elif c == "{":
            token, at = lx.take_braced()
            if token not in alphabet:
                raise UnknownSymbolError(token, at)
            r = lit(alphabet, token)
        elif c in RESERVED_CHARS:
            raise RegexSyntaxError(f"unexpected {c!r}", lx.pos)
        else:
            at = lx.pos
            lx.take()
            if c not in alphabet:
                raise UnknownSymbolError(c, at)
            r = lit(alphabet, c)
        while True:
            c = lx.peek()
            if c == "*":
                r = star(r)
            elif c == "+":
                r = plus(r)
            elif c == "?":
                r = opt(r)
            else:
                break
            level += 1
            if len(stack) + level > MAX_NESTING:
                raise RegexSyntaxError(_TOO_DEEP, lx.pos)
            lx.take()
        factors.append((r, level))
        level = 0
