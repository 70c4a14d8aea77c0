"""Binary encoding of crosswords over arbitrary alphabets.

Each of the k letters is represented by an l x l square (l = 3k) built
from cyclic shifts of the block ``0...011``; a framed layout adds an
alignment row/column and a calibration band of base squares.  The
expression transformer rewrites a line expression into one accepting
exactly the binary rows/columns of encoded grids, so encoding preserves
solutions, non-solutions and solution counts.

The decoder is deliberately a validator: it checks the structural
claims one by one (numbered 1..8 below) and reports the first one a
malformed grid violates.

1. border squares carry exactly two ones per row and column
2. no interior line has the alignment form
3. the top row and left column have the alignment form
4. the calibration band lines appear, in shift order
5. every calibration square equals the base square
6. encoding lines start with the base block and decode letterwise
7. every interior square is one of the letter squares
8. re-encoding the extracted letters reproduces the input exactly
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from ..grids import Grid
from ..records import record
from ..rex import (
    Alphabet,
    Regex,
    apply_homomorphism,
    concat,
    is_positive,
    lit,
    plus,
    union_,
    word,
)

BINARY = Alphabet(("0", "1"))


class EncodingError(ValueError):
    pass


class CodecError(ValueError):
    """A structural violation; ``claim`` is the violated claim number."""

    def __init__(self, claim: int | None, message: str):
        tag = "shape" if claim is None else f"claim {claim}"
        super().__init__(f"{tag}: {message}")
        self.claim = claim


@record(hidden=("shift_index",))
class BinaryCode:
    k: int
    ell: int
    shifts: tuple[str, ...]
    squares: tuple[tuple[str, ...], ...]
    shift_index: dict

    def cal_prefix(self, i: int) -> str:
        l = self.ell
        if i == 0:
            return "000" + "1" * (l - 3)
        if i in (1, 2):
            return "0" + "1" * (l - 1)
        return "1" * l

    def h_image(self, letter: int) -> str:
        return self.shifts[3 * letter]


@lru_cache(maxsize=16)
def binary_code(k: int) -> BinaryCode:
    """Shift blocks and letter squares for a k-letter alphabet."""
    if k < 2:
        raise EncodingError("the binary code needs an alphabet of at least 2 letters")
    l = 3 * k
    base = "0" * (l - 2) + "11"
    shifts = tuple(base[i:] + base[:i] for i in range(l))
    squares = tuple(
        tuple(shifts[(3 * c + i) % l] for i in range(l)) for c in range(k)
    )
    return BinaryCode(k, l, shifts, squares, {s: i for i, s in enumerate(shifts)})


def binarize_expr(k: int, expr: Regex) -> Regex:
    """Rewrite a positive expression over k letters into its binary form."""
    if len(expr.alphabet) != k:
        raise EncodingError(f"expression alphabet has {len(expr.alphabet)} letters, not {k}")
    if not is_positive(expr):
        raise EncodingError("only positive expressions can be binarized")
    code = binary_code(k)
    l = code.ell
    chains = [word(BINARY, s) for s in code.shifts]
    align = concat([word(BINARY, "1" * l), plus(word(BINARY, "0" * l))])
    calibration = union_([
        concat([word(BINARY, code.cal_prefix(i)), plus(chains[i])])
        for i in range(l)
    ])
    # Duplication rows repeat shift blocks of one residue class.  The
    # first block is never the base block s0 (that prefix marks an
    # encoding line), but later blocks of class 0 may be: every letter
    # square with a nonzero letter contains an s0 row.
    d0_first = union_([chains[3 * c] for c in range(1, k)])
    d0_rest = union_([chains[3 * c] for c in range(k)])
    d1 = union_([chains[3 * c + 1] for c in range(k)])
    d2 = union_([chains[3 * c + 2] for c in range(k)])
    duplication = union_([
        concat([d0_first, plus(d0_rest)]),
        concat([d1, plus(d1)]),
        concat([d2, plus(d2)]),
    ])
    images = {sym: code.h_image(sym.id) for sym in expr.alphabet}
    encoded = concat([chains[0], apply_homomorphism(expr, images, BINARY)])
    return union_([
        concat([lit(BINARY, "1"), union_([align, calibration])]),
        concat([lit(BINARY, "0"), union_([duplication, encoded])]),
    ])


def psi_encode(k: int, grid: Grid) -> Grid:
    """Encode an m x n grid as a (3k(m+1)+1) x (3k(n+1)+1) binary grid."""
    if len(grid.alphabet) != k:
        raise EncodingError(f"grid alphabet has {len(grid.alphabet)} letters, not {k}")
    code = binary_code(k)
    l = code.ell
    m, n = grid.m, grid.n
    rows = ["1" * (l + 1) + "0" * (n * l)]
    for i in range(l):
        rows.append("1" + code.cal_prefix(i) + code.shifts[i] * n)
    for t in range(m):
        for i in range(l):
            parts = ["0", code.shifts[i]]
            parts.extend(
                code.shifts[(3 * grid.cells[t][u] + i) % l] for u in range(n)
            )
            rows.append("".join(parts))
    return Grid.from_strings(BINARY, rows)


def _square(lines: list[str], t: int, u: int, l: int) -> tuple[str, ...]:
    top = 1 + t * l
    left = 1 + u * l
    return tuple(lines[top + i][left:left + l] for i in range(l))


def psi_decode(k: int, grid: Grid, alphabet: Alphabet | None = None) -> Grid:
    """Validate an encoded grid claim by claim and extract the letters.

    ``alphabet`` names the alphabet of the result; digits are used when
    it is omitted.  Raises :class:`CodecError` naming the first violated
    claim (checked in decode order: 3, 4, 1, 2, 5, 6, 7, 8).
    """
    if grid.alphabet.tokens != BINARY.tokens:
        raise CodecError(None, "grid is not over the binary alphabet")
    code = binary_code(k)
    l = code.ell
    M, N = grid.m, grid.n
    if (M - 1) % l or (N - 1) % l:
        raise CodecError(None, f"dimensions {M}x{N} are not of the form {l}*v+1")
    m = (M - 1) // l - 1
    n = (N - 1) // l - 1
    if m < 1 or n < 1:
        raise CodecError(None, f"dimensions {M}x{N} leave no encoding region")

    rows = ["".join(grid.row_tokens(i)) for i in range(M)]
    cols = ["".join(grid.col_tokens(j)) for j in range(N)]

    # claim 3: alignment
    if rows[0] != "1" * (l + 1) + "0" * (n * l):
        raise CodecError(3, "top row is not the alignment line")
    if cols[0] != "1" * (l + 1) + "0" * (m * l):
        raise CodecError(3, "left column is not the alignment line")

    # claim 4: calibration band, in order
    for i in range(l):
        if rows[1 + i] != "1" + code.cal_prefix(i) + code.shifts[i] * n:
            raise CodecError(4, f"calibration row {i} is malformed")
        if cols[1 + i] != "1" + code.cal_prefix(i) + code.shifts[i] * m:
            raise CodecError(4, f"calibration column {i} is malformed")
    for idx in range(1 + l, M):
        if rows[idx][0] != "0":
            raise CodecError(4, f"row {idx - 1} should start with 0")
    for idx in range(1 + l, N):
        if cols[idx][0] != "0":
            raise CodecError(4, f"column {idx - 1} should start with 0")

    # claim 1: border squares have exactly two ones per line
    def check_two_ones(square: tuple[str, ...], what: str) -> None:
        for line in square:
            if line.count("1") != 2:
                raise CodecError(1, f"{what} has a row without exactly two ones")
        for j in range(l):
            if sum(line[j] == "1" for line in square) != 2:
                raise CodecError(1, f"{what} has a column without exactly two ones")

    for t in range(1, m + 1):
        check_two_ones(_square(rows, t, 0, l), f"border square ({t},0)")
    for u in range(1, n + 1):
        check_two_ones(_square(rows, 0, u, l), f"border square (0,{u})")

    # claim 2: the alignment form appears nowhere else
    for idx in range(1, M):
        if rows[idx] == rows[0]:
            raise CodecError(2, f"row {idx - 1} repeats the alignment line")
    for idx in range(1, N):
        if cols[idx] == cols[0]:
            raise CodecError(2, f"column {idx - 1} repeats the alignment line")

    # claim 5: calibration squares all equal the base square
    base_square = code.squares[0]
    for t in range(1, m + 1):
        if _square(rows, t, 0, l) != base_square:
            raise CodecError(5, f"calibration square ({t},0) is not the base square")
    for u in range(1, n + 1):
        if _square(rows, 0, u, l) != base_square:
            raise CodecError(5, f"calibration square (0,{u}) is not the base square")

    # claim 6: encoding lines decode letterwise
    def decode_line(line: str, count: int, what: str) -> list[int]:
        if line[0] != "0" or line[1:1 + l] != code.shifts[0]:
            raise CodecError(6, f"{what} does not start with the base block")
        letters = []
        for v in range(count):
            block = line[1 + (v + 1) * l:1 + (v + 2) * l]
            idx = code.shift_index.get(block)
            if idx is None or idx % 3:
                raise CodecError(6, f"{what} block {v} is not a letter image")
            letters.append(idx // 3)
        return letters

    letters = [decode_line(rows[1 + t * l], n, f"encoding row {t}") for t in range(1, m + 1)]
    for u in range(1, n + 1):
        col_letters = decode_line(cols[1 + u * l], m, f"encoding column {u}")
        if col_letters != [letters[t][u - 1] for t in range(m)]:
            raise CodecError(6, f"encoding column {u} disagrees with the rows")

    # claim 7: interior squares are letter squares
    for t in range(1, m + 1):
        for u in range(1, n + 1):
            if _square(rows, t, u, l) != code.squares[letters[t - 1][u - 1]]:
                raise CodecError(7, f"square ({t},{u}) is not a letter square")

    if alphabet is None:
        alphabet = Alphabet(tuple(str(i) for i in range(k)))
    if len(alphabet) != k:
        raise EncodingError(f"result alphabet has {len(alphabet)} letters, not {k}")
    decoded = Grid(alphabet, tuple(tuple(row) for row in letters))

    # claim 8: re-encoding reproduces the input
    if psi_encode(k, decoded).cells != grid.cells:
        raise CodecError(8, "re-encoding the extracted letters does not reproduce the grid")
    return decoded


def member_fn(base) -> Callable[[Sequence[int]], bool]:
    """Adapt a Regex or compiled automaton to a letter-id membership test."""
    from ..nfa import matches
    from ..rex import regex_matches

    if isinstance(base, Regex):
        alphabet = base.alphabet
        return lambda ids: regex_matches(base, tuple(alphabet.symbols[i] for i in ids))
    alphabet = base.alphabet
    return lambda ids: matches(base, tuple(alphabet.symbols[i] for i in ids))


def binarized_matches(k: int, w: str, base_member: Callable[[Sequence[int]], bool]) -> bool:
    """Membership in the binarized language of a base expression.

    Decides by shape: alignment and calibration lines directly,
    duplication lines by block classes, and encoding lines by decoding
    the letter blocks and asking ``base_member``.  Agrees with compiling
    the binarized expression (checked in the tests) while staying usable
    at sizes where that automaton would be enormous.
    """
    code = binary_code(k)
    l = code.ell
    size = len(w)
    if size < 2 * l + 1 or (size - 1) % l:
        return False
    head, body = w[0], w[1:]
    blocks = [body[i * l:(i + 1) * l] for i in range((size - 1) // l)]
    if head == "1":
        if blocks[0] == "1" * l and all(b == "0" * l for b in blocks[1:]):
            return True
        idx = code.shift_index.get(blocks[1])
        if idx is None:
            return False
        return blocks[0] == code.cal_prefix(idx) and all(b == blocks[1] for b in blocks[1:])
    if head == "0":
        idxs = [code.shift_index.get(b) for b in blocks]
        if None not in idxs:
            j = idxs[0] % 3
            if all(ix % 3 == j for ix in idxs) and idxs[0] != 0:
                return True
        if blocks[0] != code.shifts[0]:
            return False
        letters = []
        for b in blocks[1:]:
            idx = code.shift_index.get(b)
            if idx is None or idx % 3:
                return False
            letters.append(idx // 3)
        return base_member(tuple(letters))
    return False
