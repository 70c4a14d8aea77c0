"""Crossword puzzles: row and column expressions plus the puzzle file format.

Row and column constraints are either uniform (one expression for every
line) or per-line lists.  The file format is line oriented:

    alphabet = 0 1
    # optional fixed dimensions
    rows = 2
    cols = 2
    # uniform rows, or repeated "R = ..." lines
    R* = (01|10)
    # uniform columns, or repeated "C = ..." lines
    C* = (01|10)

Every key but ``R`` and ``C`` appears at most once, and comment lines
start with ``#``.
"""

from __future__ import annotations

from typing import Sequence, Union as TUnion

from .records import record
from .rex import Alphabet, Regex, format_regex, parse


@record
class Puzzle:
    alphabet: Alphabet
    rows: TUnion[Regex, tuple]
    cols: TUnion[Regex, tuple]
    fixed_rows: int | None = None
    fixed_cols: int | None = None

    def __post_init__(self):
        for spec, fixed, what in ((self.rows, self.fixed_rows, "row"),
                                  (self.cols, self.fixed_cols, "column")):
            if isinstance(spec, Regex):
                exprs: Sequence[Regex] = (spec,)
            else:
                if not spec:
                    raise ValueError(f"empty {what} expression list")
                exprs = spec
                if fixed is not None and len(spec) != fixed:
                    raise ValueError(f"{what} list length {len(spec)} != {fixed}")
            for e in exprs:
                if not e.alphabet.compatible(self.alphabet):
                    raise ValueError(f"{what} expression uses a different alphabet")
        for fixed in (self.fixed_rows, self.fixed_cols):
            if fixed is not None and fixed < 1:
                raise ValueError("fixed dimensions must be positive")

    @property
    def uniform(self) -> bool:
        return isinstance(self.rows, Regex) and isinstance(self.cols, Regex)

    def row_exprs(self, m: int) -> list[Regex]:
        if isinstance(self.rows, Regex):
            return [self.rows] * m
        if len(self.rows) != m:
            raise ValueError(f"puzzle has {len(self.rows)} row expressions, not {m}")
        return list(self.rows)

    def col_exprs(self, n: int) -> list[Regex]:
        if isinstance(self.cols, Regex):
            return [self.cols] * n
        if len(self.cols) != n:
            raise ValueError(f"puzzle has {len(self.cols)} column expressions, not {n}")
        return list(self.cols)


def uniform_puzzle(row: Regex, col: Regex,
                   fixed_rows: int | None = None,
                   fixed_cols: int | None = None) -> Puzzle:
    return Puzzle(row.alphabet, row, col, fixed_rows, fixed_cols)


def dump_puzzle(puzzle: Puzzle, header_comments: Sequence[str] = ()) -> str:
    """The file text; each line of a header comment is one comment line."""
    lines = [f"# {line}" for c in header_comments for line in c.splitlines() or [""]]
    lines.append("alphabet = " + " ".join(puzzle.alphabet.tokens))
    if puzzle.fixed_rows is not None:
        lines.append(f"rows = {puzzle.fixed_rows}")
    if puzzle.fixed_cols is not None:
        lines.append(f"cols = {puzzle.fixed_cols}")
    if isinstance(puzzle.rows, Regex):
        lines.append("R* = " + format_regex(puzzle.rows))
    else:
        lines.extend("R = " + format_regex(r) for r in puzzle.rows)
    if isinstance(puzzle.cols, Regex):
        lines.append("C* = " + format_regex(puzzle.cols))
    else:
        lines.extend("C = " + format_regex(c) for c in puzzle.cols)
    return "\n".join(lines) + "\n"


def parse_puzzle(text: str) -> Puzzle:
    alphabet: Alphabet | None = None
    fixed: dict[str, int] = {}
    row_uniform: Regex | None = None
    col_uniform: Regex | None = None
    row_list: list[Regex] = []
    col_list: list[Regex] = []

    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: repeated {key!r} line")
        if key not in ("R", "C"):
            seen.add(key)
        if key == "alphabet":
            alphabet = Alphabet(value.split())
            continue
        if key in ("rows", "cols"):
            try:
                fixed[key] = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be an integer, got {value!r}") from None
            continue
        if alphabet is None:
            raise ValueError(f"line {lineno}: expression before alphabet line")
        if key == "R*":
            row_uniform = parse(value, alphabet)
        elif key == "C*":
            col_uniform = parse(value, alphabet)
        elif key == "R":
            row_list.append(parse(value, alphabet))
        elif key == "C":
            col_list.append(parse(value, alphabet))
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")

    if alphabet is None:
        raise ValueError("puzzle file lacks an alphabet line")
    if (row_uniform is None) == (not row_list):
        raise ValueError("puzzle needs exactly one of 'R* =' or 'R =' lines")
    if (col_uniform is None) == (not col_list):
        raise ValueError("puzzle needs exactly one of 'C* =' or 'C =' lines")
    rows: TUnion[Regex, tuple] = row_uniform if row_uniform is not None else tuple(row_list)
    cols: TUnion[Regex, tuple] = col_uniform if col_uniform is not None else tuple(col_list)
    fixed_rows, fixed_cols = fixed.get("rows"), fixed.get("cols")
    if fixed_rows is None and isinstance(rows, tuple):
        fixed_rows = len(rows)
    if fixed_cols is None and isinstance(cols, tuple):
        fixed_cols = len(cols)
    return Puzzle(alphabet, rows, cols, fixed_rows, fixed_cols)


def write_puzzle(puzzle: Puzzle, path, header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dump_puzzle(puzzle, header_comments))


def read_puzzle(path) -> Puzzle:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_puzzle(fp.read())
