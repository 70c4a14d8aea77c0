"""Merging a (row, column) expression pair into a single expression.

Three fresh edge-marker symbols are added to the alphabet: ``{hrt}``
(left edge), ``{dmd}`` (corner) and ``{spd}`` (bottom edge).  The
merged expression E is matched by marked rows, marked columns, the
all-hearts-then-diamond first column and the diamond-then-spades last
row, so a grid over (E, E) is exactly an original solution framed by
one extra column and row, up to transposition.
"""

from __future__ import annotations

from ..grids import Grid
from ..records import record
from ..rex import Alphabet, Regex, concat, lit, star, union_
from ..solver import is_plural

HEART, DIAMOND, SPADE = "hrt", "dmd", "spd"


class PluralityError(ValueError):
    pass


class MergeDecodeError(ValueError):
    pass


def _fresh(token: str, taken: set[str]) -> str:
    while token in taken:
        token += "'"
    return token


@record
class MergedAlphabet:
    alphabet: Alphabet
    heart: str
    diamond: str
    spade: str


def merged_alphabet(base: Alphabet) -> MergedAlphabet:
    """The base alphabet plus the three edge markers, appended in order."""
    taken = set(base.tokens)
    heart = _fresh(HEART, taken)
    taken.add(heart)
    diamond = _fresh(DIAMOND, taken)
    taken.add(diamond)
    spade = _fresh(SPADE, taken)
    return MergedAlphabet(
        Alphabet(base.tokens + (heart, diamond, spade)), heart, diamond, spade
    )


def merge_rc(row_expr: Regex, col_expr: Regex) -> Regex:
    """The single expression replacing a plural (row, column) pair."""
    if not row_expr.alphabet.compatible(col_expr.alphabet):
        raise ValueError("row and column expressions use different alphabets")
    if not is_plural(row_expr, col_expr):
        raise PluralityError("the (row, column) pair must be plural")
    merged = merged_alphabet(row_expr.alphabet)
    alpha = merged.alphabet
    heart = lit(alpha, merged.heart)
    diamond = lit(alpha, merged.diamond)
    spade = lit(alpha, merged.spade)
    row_lifted = Regex(row_expr.node, alpha)
    col_lifted = Regex(col_expr.node, alpha)
    return union_([
        concat([heart, row_lifted]),
        concat([diamond, spade, spade, star(spade)]),
        concat([col_lifted, spade]),
        concat([heart, heart, star(heart), diamond]),
    ])


def rho_encode(grid: Grid) -> Grid:
    """Frame a grid: prepend the hearts column, append the diamond+spades row."""
    if grid.m < 2 or grid.n < 2:
        raise ValueError("only grids with at least two rows and columns are framed")
    merged = merged_alphabet(grid.alphabet)
    alpha = merged.alphabet
    heart = alpha.symbol(merged.heart).id
    diamond = alpha.symbol(merged.diamond).id
    spade = alpha.symbol(merged.spade).id
    rows = [(heart,) + row for row in grid.cells]
    rows.append((diamond,) + (spade,) * grid.n)
    return Grid(alpha, tuple(rows))


def _try_decode(grid: Grid) -> Grid | None:
    alpha = grid.alphabet
    if len(alpha) < 4:
        return None
    base_tokens = alpha.tokens[:-3]
    heart, diamond, spade = (alpha.symbol(t).id for t in alpha.tokens[-3:])
    m, n = grid.m, grid.n
    if m < 3 or n < 3:
        return None
    if grid.cells[m - 1][0] != diamond:
        return None
    if any(grid.cells[i][0] != heart for i in range(m - 1)):
        return None
    if any(grid.cells[m - 1][j] != spade for j in range(1, n)):
        return None
    inner = tuple(row[1:] for row in grid.cells[:-1])
    if any(c >= len(base_tokens) for row in inner for c in row):
        return None
    return Grid(Alphabet(base_tokens), inner)


def rho_decode(grid: Grid) -> tuple[Grid, bool]:
    """Strip the frame, transposing first if needed.

    The last three alphabet symbols are taken to be the edge markers,
    matching what :func:`merged_alphabet` produces.  Returns the inner
    grid and whether the input had to be transposed.
    """
    direct = _try_decode(grid)
    if direct is not None:
        return direct, False
    flipped = _try_decode(grid.transpose())
    if flipped is not None:
        return flipped, True
    raise MergeDecodeError("grid does not carry well-formed edge markers")
