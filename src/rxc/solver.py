"""Exact crossword solving over fixed dimensions, plus two decision tests.

One iterative search, ``_fill``, fills cells in row-major order.  A
cell's candidates are the symbols under which both the row's and the
column's automaton can still reach acceptance within the exact number
of cells remaining on their line.  They come from one viable-symbol
table (``nfa.ViableSymbols``) per automaton, with one entry per (state
set, cells left): the row's mask ANDed with the column's, taken lowest
symbol id first, which makes the output order deterministic (grids
sorted by their row-major id sequence) and prunes hard.  Column entries
are filled lazily, only for the symbols the row allows, and every
(state set, symbol) pair is stepped at most once per search, whatever
the cells left.  Entries are linked to their successors' entries, so a
cell visit reaches its row and column entries by list indexing and
hashes nothing; the keyed lookup runs once per line start and once per
new link.

Forward support alone can let a search fill a whole row and then find
that no grid lies below it: the search backs over that row boundary
having yielded nothing since it entered it, a *dead row*.  The first
dead row arms the backward half of Pesant's REGULAR constraint, as
Nonogram line solvers use it.  From then on, each row boundary the
search enters runs a support fixpoint over the rows left: every cell
below keeps a mask (its cap), each row is walked from its start and
each column from the state set the rows above lead it to
(``ViableSymbols.supports``), and each line's cells are narrowed to the
symbols some accepting walk through the masks uses, in sweeps over all
lines until none narrows.  A line with no walk left makes the search
back out of the boundary; otherwise each cell's candidates are ANDed
with its cap, and backing over the boundary restores the caps it
replaced.  Only symbols no solution uses are removed, so the output
order is unchanged.  Searches that never meet a dead row, where forward
checking suffices, pay a flag test per cell and a store or two per
row boundary and per grid, and never propagate.

``decide_unbounded_width`` answers existence when the number of rows is
fixed but the number of columns is not: a breadth-first search over
profiles, the tuples of the rows' open-ended table entries (symbols
left None, so a row need only be able to accept at all), with a
visited set guaranteeing termination.  A table keeps one entry per
state set, so a profile is keyed by its entries' identities and no
state set is hashed per profile.  Each profile runs its own depth-first
walk down the m cells of one column, reading a cell's candidates as
the row entry's viable mask ANDed with the column entry's, lowest
symbol id first, and each full column leads to the profile of the rows'
links on its symbols.  One set of tables serves the whole decision.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Iterator, Sequence

from .grids import Grid
from .puzzle import Puzzle
from .records import record
from .rex import Regex, inter, is_positive, lit, plus, single_symbols, union_
from .nfa import Nfa, ViableSymbols, compile_regex, is_empty, matches


class DimensionError(ValueError):
    pass


def _compiled(exprs: Sequence[Regex], cache: dict[int, Nfa]) -> list[Nfa]:
    out = []
    for e in exprs:
        auto = cache.get(id(e))
        if auto is None:
            auto = compile_regex(e)
            cache[id(e)] = auto
        out.append(auto)
    return out


def _check_fixed(puzzle: Puzzle, m: int, n: int, whose: str) -> None:
    """Refuse dimensions other than those the puzzle fixes."""
    for size, fixed, what in ((m, puzzle.fixed_rows, "rows"), (n, puzzle.fixed_cols, "columns")):
        if fixed is not None and size != fixed:
            raise DimensionError(f"{whose} {size} {what}, puzzle fixes {fixed}")


def verify(puzzle: Puzzle, grid: Grid) -> bool:
    """True iff every row and column of the grid matches its expression."""
    if not grid.alphabet.compatible(puzzle.alphabet):
        raise DimensionError("grid alphabet differs from puzzle alphabet")
    _check_fixed(puzzle, grid.m, grid.n, "grid has")
    cache: dict[int, Nfa] = {}
    rows = _compiled(puzzle.row_exprs(grid.m), cache)
    cols = _compiled(puzzle.col_exprs(grid.n), cache)
    for i, auto in enumerate(rows):
        if not matches(auto, grid.row(i)):
            return False
    for j, auto in enumerate(cols):
        if not matches(auto, grid.col(j)):
            return False
    return True


def _tables(autos: Sequence[Nfa]) -> list[ViableSymbols]:
    """One viable-symbol table per automaton, shared by its repeats, so
    an (E,E) grid's rows and columns read one table."""
    tables: dict[int, ViableSymbols] = {}
    for a in autos:
        if id(a) not in tables:
            tables[id(a)] = ViableSymbols(a)
    return [tables[id(a)] for a in autos]


def _fill(row_autos: Sequence[Nfa], col_autos: Sequence[Nfa],
          ) -> Iterator[list[int]]:
    """Yield every filling of an m x n grid, in row-major lexicographic order.

    A cell's candidates are the symbols that let both its lines still
    accept in exactly the cells left on them, read from one viable-symbol
    table per automaton (``_tables``).  The column is only asked about
    the symbols its row allows, and each (state set, symbol) pair is
    stepped at most once per table.  Each cell keeps its untried
    candidates and the row and column table entries it read.  A cell's
    entries are the links of its left and upper neighbours' entries on
    their symbols, so entering a cell indexes lists and hashes nothing,
    and backing up within a row needs no undo.  Once the search has
    backed over a dead row, each row boundary it enters runs
    ``_propagate`` and each cell's candidates are ANDed with its cap;
    backing over the boundary restores the caps it replaced.  Yields the
    cells, row-major, in one reused list, so read it before resuming.
    """
    m, n = len(row_autos), len(col_autos)
    tabs = _tables([*row_autos, *col_autos])
    row_tabs, col_tabs = tabs[:m], tabs[m:]
    size = m * n
    # The row entry of each first-column cell and the column entry of
    # each first-row cell, from one keyed lookup each; every other cell's
    # entries are links.
    row_roots: list = [None] * size
    col_roots: list = [None] * size
    for i, (tab, a) in enumerate(zip(row_tabs, row_autos)):
        row_roots[i * n] = tab.entry(a.start_set(), n - 1)
    for j, (tab, a) in enumerate(zip(col_tabs, col_autos)):
        col_roots[j] = tab.entry(a.start_set(), m - 1)
    every = (1 << len(row_autos[0].alphabet)) - 1
    cells = [0] * size
    todo = [0] * size
    rows: list = [None] * size
    cols: list = [None] * size
    # boundary[k]: cell k is a row's first cell.  A boundary k on the
    # search's path has yielded a grid since the search entered it iff
    # live >= k.  Once armed, caps[k] masks the symbols that cell k's
    # lines still support, and saved[k] holds the caps that the
    # propagation at boundary k replaced.
    boundary = [False] * size
    boundary[::n] = [True] * m
    live = -1
    caps = [every] * size
    saved: list = [None] * size
    armed = False
    k, enter = 0, True
    while True:
        if enter:
            row = row_roots[k]
            if row is not None:
                if armed:
                    saved[k] = caps[k:]
                    if not _propagate(caps, k, n, row_tabs, row_roots, col_tabs, cols, cells):
                        todo[k], enter = 0, False
                        continue
            else:
                left, sym = rows[k - 1], cells[k - 1]
                row = left.links[sym] or row_tabs[k // n].link(left, sym)
            rows[k] = row
            mask = row.viable
            if row.unstepped:
                mask = row_tabs[k // n].among(row, every)
            if armed:
                mask &= caps[k]
            if mask:
                col = col_roots[k]
                if col is None:
                    up, sym = cols[k - n], cells[k - n]
                    col = up.links[sym] or col_tabs[k % n].link(up, sym)
                cols[k] = col
                if mask & col.unstepped:
                    mask = col_tabs[k % n].among(col, mask)
                else:
                    mask &= col.viable
        else:
            mask = todo[k]
        if not mask:
            if boundary[k]:
                if k == 0:
                    return
                # Backing over a row boundary: a dead row if its subtree
                # yielded no grid, and the caps it replaced come back.
                if live < k:
                    armed = True
                else:
                    live = k - 1
                if armed and saved[k] is not None:
                    caps[k:] = saved[k]
            k, enter = k - 1, False
            continue
        low = mask & -mask
        todo[k] = mask ^ low
        cells[k] = low.bit_length() - 1
        if k + 1 < size:
            k, enter = k + 1, True
        else:
            live = size
            yield cells
            enter = False


def _propagate(caps: list[int], k: int, n: int, row_tabs: Sequence[ViableSymbols],
               row_roots: Sequence, col_tabs: Sequence[ViableSymbols],
               cols: Sequence, cells: Sequence[int]) -> bool:
    """Narrow ``caps[k:]``, the cells from row-start cell k on, to their
    lines' supports until a sweep over the lines narrows none; False as
    soon as a line has no accepting walk left.

    Each row is walked from its root entry and each column from the
    entry that the cells above row k lead it to.
    """
    size = len(caps)
    lines = [(row_tabs[i // n], row_roots[i], slice(i, i + n)) for i in range(k, size, n)]
    for j in range(n):
        up, sym = cols[k - n + j], cells[k - n + j]
        top = up.links[sym] or col_tabs[j].link(up, sym)
        lines.append((col_tabs[j], top, slice(k + j, size, n)))
    narrowed = True
    while narrowed:
        narrowed = False
        for tab, entry, cut in lines:
            masks = tuple(caps[cut])
            support = tab.supports(entry, masks)
            if not support:
                return False
            if support != masks:
                caps[cut] = support
                narrowed = True
    return True


def _fillings(puzzle: Puzzle, m: int, n: int) -> Iterator[list[int]]:
    if m < 1 or n < 1:
        raise DimensionError("dimensions must be positive")
    _check_fixed(puzzle, m, n, "asked for")
    cache: dict[int, Nfa] = {}
    row_autos = _compiled(puzzle.row_exprs(m), cache)
    col_autos = _compiled(puzzle.col_exprs(n), cache)
    return _fill(row_autos, col_autos)


def _grids(puzzle: Puzzle, m: int, n: int) -> Iterator[Grid]:
    fillings = _fillings(puzzle, m, n)
    alphabet = puzzle.alphabet
    return (Grid(alphabet, tuple(tuple(cells[i:i + n]) for i in range(0, m * n, n)))
            for cells in fillings)


def enumerate_grids(puzzle: Puzzle, m: int, n: int, cap: int | None = None) -> list[Grid]:
    """All solutions in row-major lexicographic order, truncated at ``cap``."""
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    return list(islice(_grids(puzzle, m, n), cap))


def solve(puzzle: Puzzle, m: int, n: int) -> Grid | None:
    """The lexicographically least solution, or None."""
    return next(_grids(puzzle, m, n), None)


def count_grids(puzzle: Puzzle, m: int, n: int) -> int:
    """Exact number of solutions."""
    return sum(1 for _ in _fillings(puzzle, m, n))


def is_unique(puzzle: Puzzle, m: int, n: int) -> bool:
    """True iff exactly one solution exists."""
    return len(list(islice(_fillings(puzzle, m, n), 2))) == 1


def is_plural(row_expr: Regex, col_expr: Regex) -> bool:
    """Both expressions positive and no single-row or single-column solution.

    A 1 x n solution exists iff the row language meets ``A1+``, where
    ``A1`` holds the symbols that match the column expression as a
    length-1 string (and symmetrically for n x 1), so each check is the
    emptiness of one intersection, decided on its exact product
    (``nfa.is_empty``).  Length-1 membership of every symbol at once is
    one fold over the tree (``single_symbols``), and a line that matches
    no single symbol needs no automaton at all, which keeps this cheap
    even for very large expressions.
    """
    if not is_positive(row_expr) or not is_positive(col_expr):
        return False
    for line, other in ((row_expr, col_expr), (col_expr, row_expr)):
        mask = single_symbols(other)
        singles = [lit(line.alphabet, s.token) for s in line.alphabet if mask >> s.id & 1]
        if singles and not is_empty(inter([line, plus(union_(singles))])):
            return False
    return True


@record
class WidthResult:
    exists: bool
    width: int | None = None
    grid: Grid | None = None


def decide_unbounded_width(rows: Sequence[Regex], col_expr: Regex) -> WidthResult:
    """Does a grid with these rows and uniform columns exist for some width?

    Decides existence over all widths n >= 1 for the fixed list of row
    expressions.  Columns are generated symbol by symbol, one walk down
    a column per profile (see the module docstring); profiles already
    seen are never revisited, which bounds the search by the finite
    profile space.  On success the least witness width and the
    column-major least witness grid of that width are returned.  An
    expression object that is both a row and the column, as in the (E,
    E) form, is compiled once and shares one viable-symbol table, whose
    entries are keyed by symbols left as well as state set.
    """
    if not rows:
        raise ValueError("need at least one row expression")
    alphabet = rows[0].alphabet
    if not all(e.alphabet.compatible(alphabet) for e in (*rows, col_expr)):
        raise DimensionError("rows and column use different alphabets")
    cache: dict[int, Nfa] = {}
    row_autos = _compiled(rows, cache)
    (col_auto,) = _compiled([col_expr], cache)
    m = len(rows)
    *row_tabs, col_tab = _tables([*row_autos, col_auto])

    start = tuple(tab.entry(a.start_set(), None) for tab, a in zip(row_tabs, row_autos))
    parents: dict[tuple, tuple[tuple, tuple[int, ...]] | None] = {start: None}
    queue: deque[tuple[tuple, int]] = deque([(start, 0)])

    def rebuild(profile: tuple, last_column: tuple[int, ...]) -> Grid:
        columns = [last_column]
        node = profile
        while parents[node] is not None:
            node, column = parents[node]
            columns.append(column)
        columns.reverse()
        cells = tuple(tuple(col[i] for col in columns) for i in range(m))
        return Grid(alphabet, cells)

    col_root = col_tab.entry(col_auto.start_set(), m - 1)
    every = (1 << len(alphabet)) - 1
    cells = [0] * m
    todo = [0] * m
    cols: list = [None] * m
    while queue:
        profile, depth = queue.popleft()
        k, enter = 0, True
        while k >= 0:
            if enter:
                row = profile[k]
                mask = row_tabs[k].among(row, every) if row.unstepped else row.viable
                if mask:
                    if k:
                        up, sym = cols[k - 1], cells[k - 1]
                        col = up.links[sym] or col_tab.link(up, sym)
                    else:
                        col = col_root
                    cols[k] = col
                    if mask & col.unstepped:
                        mask = col_tab.among(col, mask)
                    else:
                        mask &= col.viable
            else:
                mask = todo[k]
            if not mask:
                k, enter = k - 1, False
                continue
            low = mask & -mask
            todo[k] = mask ^ low
            cells[k] = low.bit_length() - 1
            if k + 1 < m:
                k, enter = k + 1, True
                continue
            enter = False
            nxt = tuple(e.links[sym] or tab.link(e, sym)
                        for tab, e, sym in zip(row_tabs, profile, cells))
            if all(a.accepts(e.states) for a, e in zip(row_autos, nxt)):
                return WidthResult(True, depth + 1, rebuild(profile, tuple(cells)))
            if nxt not in parents:
                parents[nxt] = (profile, tuple(cells))
                queue.append((nxt, depth + 1))
    return WidthResult(False)
