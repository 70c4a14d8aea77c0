"""Brute-force reference implementations.

Everything here exists to be obviously correct, not fast.  Membership
tests go through the structural recursion in :mod:`rxc.rex`, so these
results are independent of the automata layer they are used to check.

File formats: CNF formulas are read in DIMACS (``c`` comment lines,
``p cnf VARS CLAUSES`` header, zero-terminated clauses); graphs as a
line ``V E`` followed by ``E`` lines ``u v`` with 1-based endpoints.
"""

from __future__ import annotations

from itertools import combinations, product

from .grids import Grid
from .puzzle import Puzzle
from .records import record
from .rex import regex_matches

DEFAULT_GRID_SCAN_CAP = 1 << 24


class CapExceeded(ValueError):
    pass


def brute_force_crosswords(puzzle: Puzzle, m: int, n: int,
                           cap: int = DEFAULT_GRID_SCAN_CAP) -> list[Grid]:
    """Every solution of the puzzle at m x n, in lexicographic order.

    Scans the full grid space (as row choices filtered by column
    membership tables), so the space must stay under ``cap``.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    size = len(puzzle.alphabet)
    if size ** (m * n) > cap:
        raise CapExceeded(f"{size}**{m * n} grids exceed the cap {cap}")
    row_exprs = puzzle.row_exprs(m)
    col_exprs = puzzle.col_exprs(n)
    syms = puzzle.alphabet.symbols

    def line_table(exprs, length):
        table = []
        for e in exprs:
            ok = set()
            for ids in product(range(size), repeat=length):
                if regex_matches(e, tuple(syms[i] for i in ids)):
                    ok.add(ids)
            table.append(ok)
        return table

    row_ok = line_table(row_exprs, n)
    col_ok = line_table(col_exprs, m)

    out: list[Grid] = []
    row_candidates = [sorted(ok) for ok in row_ok]
    for rows in product(*row_candidates):
        if all(tuple(r[j] for r in rows) in col_ok[j] for j in range(n)):
            out.append(Grid(puzzle.alphabet, rows))
    return out


@record
class GraphInstance:
    """An undirected graph with a cover budget; vertices are 1-based."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("need at least one vertex")
        if self.k < 1:
            raise ValueError("budget k must be positive")
        for u, v in self.edges:
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")


def brute_force_vertex_cover(g: GraphInstance) -> bool:
    """True iff some set of at most k vertices covers every edge."""
    if g.vertex_count > 10:
        raise CapExceeded("vertex cover oracle is capped at 10 vertices")
    vertices = range(1, g.vertex_count + 1)
    for size in range(0, g.k + 1):
        for chosen in combinations(vertices, size):
            cs = set(chosen)
            if all(u in cs or v in cs for u, v in g.edges):
                return True
    return False


@record
class CnfFormula:
    """CNF over variables x0..x(k-1); literals are DIMACS-style signed ints.

    Literal ``v+1`` means xv, ``-(v+1)`` means NOT xv.
    """

    var_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.var_count < 1:
            raise ValueError("need at least one variable")
        if not self.clauses:
            raise ValueError("need at least one clause")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for literal in clause:
                if literal == 0 or abs(literal) > self.var_count:
                    raise ValueError(f"literal {literal} out of range")

    def clause_satisfied(self, clause: tuple[int, ...], assignment: tuple[int, ...]) -> bool:
        return any(
            assignment[abs(l) - 1] == (1 if l > 0 else 0)
            for l in clause
        )

    def satisfied_by(self, assignment: tuple[int, ...]) -> bool:
        return all(self.clause_satisfied(c, assignment) for c in self.clauses)


def brute_force_sat_count(formula: CnfFormula) -> int:
    """Number of satisfying assignments, by scanning all of them."""
    if formula.var_count > 20:
        raise CapExceeded("sat counting oracle is capped at 20 variables")
    total = 0
    for bits in product((0, 1), repeat=formula.var_count):
        if formula.satisfied_by(bits):
            total += 1
    return total


def parse_dimacs(text: str) -> CnfFormula:
    var_count = 0
    clause_count = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header {line!r}")
            var_count = int(parts[2])
            clause_count = int(parts[3])
            continue
        for tok in line.split():
            v = int(tok)
            if v == 0:
                if pending:
                    clauses.append(tuple(pending))
                    pending = []
            else:
                pending.append(v)
    if pending:
        clauses.append(tuple(pending))
    if clause_count is not None and clause_count != len(clauses):
        raise ValueError(f"DIMACS header declares {clause_count} clauses, found {len(clauses)}")
    if var_count == 0:
        var_count = max((abs(l) for c in clauses for l in c), default=0)
    return CnfFormula(var_count, tuple(clauses))


def dump_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.var_count} {len(formula.clauses)}"]
    lines.extend(" ".join(str(l) for l in c) + " 0" for c in formula.clauses)
    return "\n".join(lines) + "\n"


def read_dimacs(path) -> CnfFormula:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_dimacs(fp.read())


def parse_graph(text: str, k: int) -> GraphInstance:
    lines = [l.strip() for l in text.splitlines()
             if l.strip() and not l.strip().startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad graph header {lines[0]!r}")
    v, e = int(head[0]), int(head[1])
    if len(lines) - 1 != e:
        raise ValueError(f"expected {e} edges, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return GraphInstance(v, tuple(edges), k)


def read_graph(path, k: int) -> GraphInstance:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_graph(fp.read(), k)
