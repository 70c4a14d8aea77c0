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

from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union as TUnion

from .records import record

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


@record
class Symbol:
    """One alphabet symbol: an interned token plus its alphabet position."""

    __slots__ = ("token", "id")
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
    """A tree node.  Equality, hashing and ``repr`` walk the tree on an
    explicit stack, so they work at any depth."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, _NARY):
                if len(a.parts) != len(b.parts):
                    return False
                todo.extend(zip(a.parts, b.parts))
            elif isinstance(a, _UNARY):
                todo.append((a.body, b.body))
            elif isinstance(a, Lit) and a.sym != b.sym:
                return False
        return True

    def __hash__(self) -> int:
        return _fold(self, _hash_node)

    def __repr__(self) -> str:
        out: list[str] = []
        # Nodes still to print, and the text that closes each one.
        todo: list = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Lit):
                out.append(f"Lit(sym={item.sym!r})")
            elif isinstance(item, _UNARY):
                out.append(f"{type(item).__name__}(body=")
                todo += [")", item.body]
            elif isinstance(item, _NARY):
                out.append(f"{type(item).__name__}(parts=(")
                todo.append(",))" if len(item.parts) == 1 else "))")
                for i, part in enumerate(reversed(item.parts)):
                    todo += [", ", part] if i else [part]
            else:
                out.append(f"{type(item).__name__}()")
        return "".join(out)


@record(eq=False, repr=False)
class Eps(Node):
    __slots__ = ()


@record(eq=False, repr=False)
class Lit(Node):
    __slots__ = ("sym",)
    sym: Symbol


@record(eq=False, repr=False)
class Concat(Node):
    __slots__ = ("parts",)
    parts: tuple[Node, ...]


@record(eq=False, repr=False)
class Union(Node):
    __slots__ = ("parts",)
    parts: tuple[Node, ...]


@record(eq=False, repr=False)
class Inter(Node):
    __slots__ = ("parts",)
    parts: tuple[Node, ...]


@record(eq=False, repr=False)
class Star(Node):
    __slots__ = ("body",)
    body: Node


@record(eq=False, repr=False)
class Plus(Node):
    __slots__ = ("body",)
    body: Node


@record(eq=False, repr=False)
class Opt(Node):
    __slots__ = ("body",)
    body: Node


_NARY = (Concat, Union, Inter)
_UNARY = (Star, Plus, Opt)
_INNER = _NARY + _UNARY


def _hash_node(node: Node, kids: Sequence[int]) -> int:
    return hash((node.__class__, node.sym if isinstance(node, Lit) else tuple(kids)))


@record
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


# --- tree folds ----------------------------------------------------------------

T = TypeVar("T")


def _fold(root: Node, visit: Callable[[Node, Sequence[T]], T], shared: bool = True) -> T:
    """Fold the tree under ``root`` bottom-up, on an explicit stack.

    ``visit(node, kids)`` gets the values of the node's children, in
    order, and returns the node's value; no walk recurses, however deep
    the tree.  With ``shared``, an inner node met again (the same
    object: the constructors, ``apply_homomorphism`` and the reductions
    reuse subtrees) is visited once and its value reused.  Without it
    every occurrence is visited and no value is kept once its parent
    has it, for walks that must not share a value or need not keep one.
    """
    memo: dict[int, T] = {}
    out: list[T] = []
    # One frame per inner node being folded: the node, an iterator over
    # its children and the values of those done.  The first frame has no
    # node; its one child is the root.
    frames: list = [(None, iter((root,)), out)]
    while frames:
        node, todo, kids = frames[-1]
        for child in todo:
            if not isinstance(child, _INNER):
                kids.append(visit(child, ()))
            elif shared and id(child) in memo:
                kids.append(memo[id(child)])
            else:
                parts = child.parts if isinstance(child, _NARY) else (child.body,)
                frames.append((child, iter(parts), []))
                break
        else:
            frames.pop()
            if frames:
                value = visit(node, kids)
                if shared:
                    memo[id(node)] = value
                frames[-1][2].append(value)
    return out[0]


# --- structural predicates --------------------------------------------------

def _nullable(node: Node, kids: Sequence[bool]) -> bool:
    if isinstance(node, Lit):
        return False
    if isinstance(node, (Concat, Inter, Plus)):
        return all(kids)
    if isinstance(node, Union):
        return any(kids)
    if isinstance(node, (Eps, Star, Opt)):
        return True
    raise TypeError(f"unknown node {node!r}")


def is_positive(r: Regex) -> bool:
    """True iff the empty string does not match ``r``."""
    return not _fold(r.node, _nullable)


def used_symbols(r: Regex) -> set[Symbol]:
    out: set[Symbol] = set()

    def visit(node: Node, kids) -> None:
        if isinstance(node, Lit):
            out.add(node.sym)

    _fold(r.node, visit)
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

    def visit(node: Node, kids: Sequence[Node]) -> Node:
        if isinstance(node, Eps):
            return node
        if isinstance(node, Lit):
            try:
                return replacement[node.sym]
            except KeyError:
                raise ValueError(f"no image for symbol {node.sym.token!r}") from None
        if isinstance(node, Concat):
            parts: list[Node] = []
            for q in kids:
                if isinstance(q, Concat):
                    parts.extend(q.parts)
                else:
                    parts.append(q)
            return Concat(tuple(parts))
        if isinstance(node, (Union, Inter)):
            return type(node)(tuple(kids))
        if isinstance(node, (Star, Plus, Opt)):
            return type(node)(kids[0])
        raise TypeError(f"unknown node {node!r}")

    return Regex(_fold(r.node, visit), target)


# --- direct membership (reference semantics) --------------------------------

def regex_matches(r: Regex, w: TUnion[str, Sequence[TUnion[str, Symbol]]]) -> bool:
    """Membership by structural induction on the AST.

    Independent of the automata layer; used as the reference oracle and
    for cheap checks on very large expression trees.  Cost grows with
    ``len(w)**3`` per node, so keep the words short.
    """
    wsyms = symbols(r.alphabet, w)
    n = len(wsyms)
    eps_spans = frozenset((i, i) for i in range(n + 1))

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
        spans = set(eps_spans)
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

    def spans(node: Node, kids: Sequence[frozenset]) -> frozenset:
        """The (start, end) pairs of the subwords ``node`` matches."""
        if isinstance(node, Eps):
            return eps_spans
        if isinstance(node, Lit):
            return frozenset((i, i + 1) for i in range(n) if wsyms[i] == node.sym)
        if isinstance(node, Concat):
            s = kids[0]
            for k in kids[1:]:
                s = join(s, k)
            return s
        if isinstance(node, Union):
            return frozenset().union(*kids)
        if isinstance(node, Inter):
            return frozenset.intersection(*kids)
        if isinstance(node, Star):
            return closure(kids[0])
        if isinstance(node, Plus):
            return join(kids[0], closure(kids[0]))
        if isinstance(node, Opt):
            return kids[0] | eps_spans
        raise TypeError(f"unknown node {node!r}")

    return (0, n) in _fold(r.node, spans)


# --- printing ----------------------------------------------------------------

_PREC_UNION, _PREC_INTER, _PREC_CONCAT, _PREC_POSTFIX = 0, 1, 2, 3


def _token_text(sym: Symbol) -> str:
    t = sym.token
    if len(t) == 1 and t not in RESERVED_CHARS:
        return t
    return "{" + t + "}"


def _render(node: Node, kids: Sequence[tuple[str, int]]) -> tuple[str, int]:
    """The text of ``node`` and its precedence, from its children's."""
    if isinstance(node, Eps):
        return "_", _PREC_POSTFIX
    if isinstance(node, Lit):
        return _token_text(node.sym), _PREC_POSTFIX
    if isinstance(node, (Star, Plus, Opt)):
        op = "*" if isinstance(node, Star) else "+" if isinstance(node, Plus) else "?"
        body, prec = kids[0]
        return (body if prec == _PREC_POSTFIX else "(" + body + ")") + op, _PREC_POSTFIX
    if isinstance(node, Union):
        sep, outer = "|", _PREC_UNION
    elif isinstance(node, Inter):
        sep, outer = "&", _PREC_INTER
    elif isinstance(node, Concat):
        sep, outer = "", _PREC_CONCAT
    else:
        raise TypeError(f"unknown node {node!r}")
    return sep.join(text if prec >= outer else "(" + text + ")" for text, prec in kids), outer


def format_regex(r: Regex) -> str:
    """Render with canonical parenthesisation; reparses to an equal AST."""
    # Unshared: a shared subtree's text is copied into each parent anyway,
    # and keeping every subtree's text would take memory quadratic in the
    # depth of the tree.
    return _fold(r.node, _render, shared=False)[0]


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


def parse(text: str, alphabet: Alphabet) -> Regex:
    """Parse regex text over the given alphabet.

    The parser keeps one frame per open parenthesis on an explicit
    stack.  More than ``MAX_NESTING`` open parentheses raise
    ``RegexSyntaxError``; this bounds the input only.  Postfix chains
    and operator nesting are not limited: every walk over the tree runs
    on an explicit stack, whatever its depth.
    """
    lx = _Lexer(text)
    # Per open group: the union and intersection operands finished so
    # far and the factors of the concatenation being read.
    stack: list[tuple[list, list, list]] = []
    unions: list[Regex] = []
    inters: list[Regex] = []
    factors: list[Regex] = []
    while True:
        c = lx.peek()
        if c is None or c in "|&)":
            if not factors:
                what = "end of input" if c is None else repr(c)
                raise RegexSyntaxError(f"unexpected {what}", lx.pos)
            inters.append(factors[0] if len(factors) == 1 else concat(factors))
            factors = []
            if c == "&":
                lx.take()
                continue
            unions.append(inters[0] if len(inters) == 1 else inter(inters))
            inters = []
            if c == "|":
                lx.take()
                continue
            r = unions[0] if len(unions) == 1 else union_(unions)
            if c is None:
                if stack:
                    raise RegexSyntaxError("expected ')'", lx.pos)
                return r
            if not stack:
                raise RegexSyntaxError("unexpected ')'", lx.pos)
            lx.take()
            unions, inters, factors = stack.pop()
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
            lx.take()
        factors.append(r)
