"""Rectangular grids of alphabet symbols, plus the grid file format.

A grid file starts with a line ``m n`` followed by ``m`` lines of ``n``
whitespace-separated symbol tokens (written bare, without braces).
Lines whose first non-blank character is ``#`` are comments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .records import record
from .rex import Alphabet, Symbol


@record
class Grid:
    """An m x n matrix of symbols, stored as alphabet ids in row-major order."""

    alphabet: Alphabet
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise ValueError("grid must be nonempty")
        n = len(self.cells[0])
        size = len(self.alphabet)
        for row in self.cells:
            if len(row) != n:
                raise ValueError("grid rows have unequal lengths")
            for c in row:
                if not 0 <= c < size:
                    raise ValueError(f"cell id {c} outside alphabet")

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return len(self.cells[0])

    def row(self, i: int) -> tuple[Symbol, ...]:
        return tuple(self.alphabet.symbols[c] for c in self.cells[i])

    def col(self, j: int) -> tuple[Symbol, ...]:
        return tuple(self.alphabet.symbols[r[j]] for r in self.cells)

    def row_tokens(self, i: int) -> tuple[str, ...]:
        return tuple(s.token for s in self.row(i))

    def col_tokens(self, j: int) -> tuple[str, ...]:
        return tuple(s.token for s in self.col(j))

    def transpose(self) -> "Grid":
        return Grid(self.alphabet, tuple(zip(*self.cells)))

    def key(self) -> tuple[int, ...]:
        """Row-major id sequence; the grid ordering used everywhere."""
        return tuple(c for row in self.cells for c in row)

    @staticmethod
    def from_tokens(alphabet: Alphabet, rows: Iterable[Sequence[str]]) -> "Grid":
        return Grid(
            alphabet,
            tuple(tuple(alphabet.symbol(t).id for t in row) for row in rows),
        )

    @staticmethod
    def from_strings(alphabet: Alphabet, rows: Iterable[str]) -> "Grid":
        """Rows as plain strings, one single-character token per cell."""
        return Grid.from_tokens(alphabet, [list(r) for r in rows])

    def __str__(self) -> str:
        return "\n".join(" ".join(self.row_tokens(i)) for i in range(self.m))


def dump_grid(grid: Grid) -> str:
    lines = [f"{grid.m} {grid.n}"]
    for i in range(grid.m):
        lines.append(" ".join(grid.row_tokens(i)))
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            out.append(stripped)
    return out


def parse_grid(text: str, alphabet: Alphabet) -> Grid:
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty grid file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad grid header {lines[0]!r}")
    m, n = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} grid rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        toks = line.split()
        if len(toks) != n:
            raise ValueError(f"expected {n} tokens in row {line!r}")
        rows.append(toks)
    return Grid.from_tokens(alphabet, rows)


def write_grid(grid: Grid, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dump_grid(grid))


def read_grid(path, alphabet: Alphabet) -> Grid:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_grid(fp.read(), alphabet)
