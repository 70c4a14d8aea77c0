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

Text is read in one scan by a compiled ``re`` pattern whose matches are
the tokens: a braced symbol, a run of blanks, a comment, or any other
single character.  The parser builds nodes as the tokens come, with the
alphabet's one shared ``Lit`` node per symbol, and the printer appends
the pieces of the text to one list; both keep their pending work on an
explicit stack, so each runs in time linear in the text.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import and_, or_
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
        self.position = position


@record
class Symbol:
    """One alphabet symbol: an interned token plus its alphabet position."""

    __slots__ = ("token", "id")
    token: str
    id: int


# ``\s`` matches exactly the characters for which ``str.isspace`` holds.
_BAD_TOKEN_CHAR = re.compile(r"[\s{}]")


def _check_token(token: str) -> None:
    if not token:
        raise ValueError("symbol token must be nonempty")
    if _BAD_TOKEN_CHAR.search(token):
        if any(c.isspace() for c in token):
            raise ValueError(f"symbol token {token!r} contains whitespace")
        raise ValueError(f"symbol token {token!r} contains a brace")


class Alphabet:
    """An ordered, duplicate-free list of symbols; ids are positions."""

    __slots__ = ("symbols", "tokens", "_by_token", "_lits")

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
        # One Lit node per symbol, shared by every tree over the alphabet
        # and keyed by each text that denotes it in regex syntax: braced,
        # and bare when it is one character that is not reserved.
        self._lits: dict[str, Lit] = {}
        for s in self.symbols:
            node = self._lits["{" + s.token + "}"] = Lit(s)
            if len(s.token) == 1 and s.token not in RESERVED_CHARS:
                self._lits[s.token] = node

    def symbol(self, token: str) -> Symbol:
        try:
            return self._by_token[token]
        except KeyError:
            raise UnknownSymbolError(token) from None

    def lit(self, token: str) -> "Lit":
        """The alphabet's one literal node for ``token``."""
        try:
            return self._lits["{" + token + "}"]
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


def _joined(kind: type, nodes: Sequence[Node]) -> Node:
    """One node of ``kind`` over ``nodes``, with the parts of any node
    of that kind spliced in, or the one part left."""
    flat: list[Node] = []
    for n in nodes:
        if isinstance(n, kind):
            flat.extend(n.parts)
        else:
            flat.append(n)
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


def epsilon(alphabet: Alphabet) -> Regex:
    return Regex(Eps(), alphabet)


def lit(alphabet: Alphabet, token: str) -> Regex:
    return Regex(alphabet.lit(token), alphabet)


def word(alphabet: Alphabet, tokens: TUnion[str, Iterable[str]]) -> Regex:
    """Concatenation of literals; a plain string is one token per character."""
    nodes = [alphabet.lit(t) for t in tokens]
    return Regex(_joined(Concat, nodes), alphabet) if nodes else epsilon(alphabet)


def concat(parts: Sequence[Regex]) -> Regex:
    if not parts:
        raise ValueError("concat of nothing; use epsilon()")
    return Regex(_joined(Concat, [p.node for p in parts]), _shared_alphabet(parts))


def union_(parts: Sequence[Regex]) -> Regex:
    if not parts:
        raise ValueError("union of nothing")
    return Regex(_joined(Union, [p.node for p in parts]), _shared_alphabet(parts))


def inter(parts: Sequence[Regex]) -> Regex:
    if not parts:
        raise ValueError("intersection of nothing")
    return Regex(_joined(Inter, [p.node for p in parts]), _shared_alphabet(parts))


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


def _fold(root: Node, visit: Callable[[Node, Sequence[T]], T]) -> T:
    """Fold the tree under ``root`` bottom-up, on an explicit stack.

    ``visit(node, kids)`` gets the values of the node's children, in
    order, and returns the node's value; no walk recurses, however deep
    the tree.  An inner node met again (the same object: the
    constructors, ``apply_homomorphism`` and the reductions reuse
    subtrees) is visited once and its value reused.
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
            elif id(child) in memo:
                kids.append(memo[id(child)])
            else:
                parts = child.parts if isinstance(child, _NARY) else (child.body,)
                frames.append((child, iter(parts), []))
                break
        else:
            frames.pop()
            if frames:
                value = memo[id(node)] = visit(node, kids)
                frames[-1][2].append(value)
    return out[0]


# --- structural predicates --------------------------------------------------

def _singles(node: Node, kids: Sequence[tuple[bool, int]]) -> tuple[bool, int]:
    """(nullable, mask of the symbols the node matches as a one-symbol
    word): a concatenation reads its one symbol in a part whose
    siblings are all nullable."""
    if isinstance(node, Lit):
        return False, 1 << node.sym.id
    if isinstance(node, Eps):
        return True, 0
    if isinstance(node, (Star, Opt)):
        return True, kids[0][1]
    if isinstance(node, Plus):
        return kids[0]
    if isinstance(node, Union):
        return any(n for n, _ in kids), reduce(or_, (m for _, m in kids), 0)
    if isinstance(node, Inter):
        return all(n for n, _ in kids), reduce(and_, (m for _, m in kids), -1)
    if isinstance(node, Concat):
        solid = [m for n, m in kids if not n]
        if not solid:
            return True, reduce(or_, (m for _, m in kids), 0)
        return False, solid[0] if len(solid) == 1 else 0
    raise TypeError(f"unknown node {node!r}")


def single_symbols(r: Regex) -> int:
    """Mask of the symbol ids that match ``r`` as one-symbol words."""
    return _fold(r.node, _singles)[1]


def is_positive(r: Regex) -> bool:
    """True iff the empty string does not match ``r``."""
    return not _fold(r.node, _singles)[0]


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
        replacement[sym] = _joined(Concat, [target.lit(t.token) for t in toks])

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

# Each n-ary kind's separator and precedence; every other node binds
# tighter than all three.
_SEPARATOR = {Union: "|", Inter: "&", Concat: ""}
_PRECEDENCE = {Union: 0, Inter: 1, Concat: 2}
_POSTFIX_TEXT = {Star: "*", Plus: "+", Opt: "?"}


def _token_text(sym: Symbol) -> str:
    t = sym.token
    if len(t) == 1 and t not in RESERVED_CHARS:
        return t
    return "{" + t + "}"


def format_regex(r: Regex) -> str:
    """Render with canonical parenthesisation; reparses to an equal AST."""
    out: list[str] = []
    # Nodes still to print, and the text that comes between and after them.
    todo: list = [r.node]
    emit, push, pop = out.append, todo.append, todo.pop
    while todo:
        item = pop()
        kind = item.__class__
        if kind is str:
            emit(item)
        elif kind is Lit:
            emit(_token_text(item.sym))
        elif kind in _POSTFIX_TEXT:
            body = item.body
            if body.__class__ in _PRECEDENCE:
                emit("(")
                push(")" + _POSTFIX_TEXT[kind])
            else:
                push(_POSTFIX_TEXT[kind])
            push(body)
        elif kind in _SEPARATOR:
            sep, outer = _SEPARATOR[kind], _PRECEDENCE[kind]
            parts = item.parts
            # Pushed last part first; each part but the first is led by sep.
            for i in range(len(parts) - 1, -1, -1):
                part = parts[i]
                lead = sep if i else ""
                if part.__class__ is Lit:
                    push(lead + _token_text(part.sym))
                elif _PRECEDENCE.get(part.__class__, 3) < outer:
                    push(")")
                    push(part)
                    push(lead + "(")
                else:
                    push(part)
                    if lead:
                        push(lead)
        elif kind is Eps:
            emit("_")
        else:
            raise TypeError(f"unknown node {item!r}")
    return "".join(out)


# --- parsing ------------------------------------------------------------------

# One match per token: a braced symbol, a run of blanks, a comment, any
# other single character, and an empty match at the end of the text.  An
# unterminated '{' matches as a single character.
_TOKENS = re.compile(r"\{[^}]*\}|\s+|#[^\n]*|.|\Z")
_POSTFIX_KIND = {text: kind for kind, text in _POSTFIX_TEXT.items()}
# The tokens that end an operand: "" is the end of the text.
_OPERAND_ENDS = frozenset(("|", "&", ")", ""))

MAX_NESTING = 200
_TOO_DEEP = f"nested too deeply (more than {MAX_NESTING} levels)"


def parse(text: str, alphabet: Alphabet) -> Regex:
    """Parse regex text over the given alphabet.

    The parser reads the text in one token scan and keeps one frame per
    open parenthesis on an explicit stack.  More than ``MAX_NESTING``
    open parentheses raise ``RegexSyntaxError``; this bounds the input
    only.  Postfix chains and operator nesting are not limited: every
    walk over the tree runs on an explicit stack, whatever its depth.
    """
    lits = alphabet._lits
    # Per open group: the union and intersection operands finished so
    # far and the factors of the concatenation being read.
    stack: list[tuple[list, list, list]] = []
    unions: list[Node] = []
    inters: list[Node] = []
    factors: list[Node] = []
    for m in _TOKENS.finditer(text):
        tok = m[0]
        node = lits.get(tok)
        if node is not None:
            factors.append(node)
        elif tok in _POSTFIX_KIND and factors:
            factors[-1] = _POSTFIX_KIND[tok](factors[-1])
        elif tok in _OPERAND_ENDS:
            if not factors:
                what = repr(tok) if tok else "end of input"
                raise RegexSyntaxError(f"unexpected {what}", m.start())
            inters.append(factors[0] if len(factors) == 1 else _joined(Concat, factors))
            factors = []
            if tok == "&":
                continue
            unions.append(inters[0] if len(inters) == 1 else _joined(Inter, inters))
            inters = []
            if tok == "|":
                continue
            r = unions[0] if len(unions) == 1 else _joined(Union, unions)
            if not tok:
                break
            if not stack:
                raise RegexSyntaxError("unexpected ')'", m.start())
            unions, inters, factors = stack.pop()
            factors.append(r)
        elif tok == "(":
            if len(stack) == MAX_NESTING:
                raise RegexSyntaxError(_TOO_DEEP, m.start())
            stack.append((unions, inters, factors))
            unions, inters, factors = [], [], []
        elif tok == "_":
            factors.append(Eps())
        elif tok[0] == "#" or tok.isspace():
            continue
        elif tok == "{":
            raise RegexSyntaxError("unterminated '{' token", m.start())
        elif tok == "{}":
            raise RegexSyntaxError("empty symbol token", m.start())
        elif tok[0] == "{":
            raise UnknownSymbolError(tok[1:-1], m.start())
        elif tok in RESERVED_CHARS:
            raise RegexSyntaxError(f"unexpected {tok!r}", m.start())
        else:
            raise UnknownSymbolError(tok, m.start())
    if stack:
        raise RegexSyntaxError("expected ')'", len(text))
    return Regex(r, alphabet)
