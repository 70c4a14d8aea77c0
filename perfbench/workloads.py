"""The four workloads: seeded inputs, timed operations and their checks.

Each workload turns a seed into a fixed list of operations.  An
operation's ``run`` is the timed part: it calls ``rxc`` through module
attributes (``rx.solver.count_grids``), so the tracer's wrappers see
every call.  Its ``check`` runs outside the timed region and compares
the output with a computation made apart from the automata layer: the
closed-form counts, ``rex.regex_matches``, ``oracle.brute_force_*``,
``turing.simulate``/``build_tableau`` and ``psi_encode``.  Expected
values are computed once per process and reused by later rounds.
``corrupt`` gives a deliberately wrong output of the same shape, which
the self-test feeds to ``check``.

Random instances are drawn once per workload from a fixed catalogue
seed; the run's seed draws a symmetric variant of each (symbols renamed,
union and intersection operands shuffled, see ``exprs.variant``) plus
the seeded words and machine inputs.  Two random draws of equal size can
differ several times over in cost, and the benchmark is compared across
seeds, so the seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import random
from math import comb
from types import SimpleNamespace

import exprs

MODULES = {
    "rex": "rxc.rex",
    "nfa": "rxc.nfa",
    "grids": "rxc.grids",
    "puzzle": "rxc.puzzle",
    "solver": "rxc.solver",
    "oracle": "rxc.oracle",
    "turing": "rxc.turing",
    "machines": "rxc.machines",
    "markers": "rxc.markers",
    "tableau": "rxc.reductions.tableau",
    "satpipe": "rxc.reductions.satpipe",
    "binary": "rxc.reductions.binary",
}


def load_rxc():
    """Import the package and return its modules by short name."""
    import importlib

    return SimpleNamespace(**{k: importlib.import_module(v) for k, v in MODULES.items()})


class Op:
    """One timed operation with its check and its deliberate corruption."""

    __slots__ = ("name", "run", "check", "corrupt", "kind")

    def __init__(self, name, run, check, corrupt, kind):
        self.name = name
        self.run = run          # () -> output; the timed part
        self.check = check      # output -> None when right, else a message
        self.corrupt = corrupt  # output -> a wrong output, for the self-test
        self.kind = kind        # what the check compares, for the self-test report


def once(fn):
    """Compute ``fn()`` on first use and keep the value."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _flip_cell(grid, rx):
    cells = [list(r) for r in grid.cells]
    cells[0][0] = (cells[0][0] + 1) % len(grid.alphabet)
    return rx.grids.Grid(grid.alphabet, tuple(tuple(r) for r in cells))


def _cells(grids):
    return [g.cells for g in grids]


def _expect(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def puzzle_text(tokens, row, col) -> str:
    return f"alphabet = {' '.join(tokens)}\nR* = {row}\nC* = {col}\n"


# --- compile -----------------------------------------------------------------

def compile_catalogue(light: int, heavy: int) -> list:
    """Expression shapes: ``light`` random trees of 6 to 25 nodes, an equal
    number of each size, then ``heavy`` intersections of a dense operand
    (every leaf ``(0|1)``) and a random one, under a closure or after a
    prefix, so ``compile_regex`` builds an explicit epsilon product of
    several hundred to about a thousand states for each."""
    rng = random.Random("compile:catalogue")
    out = [exprs.random_tree(rng, 6 + k % 20) for k in range(light)]
    for _ in range(heavy):
        core = ("and", (exprs.sized_expr(rng, 38, 44, leaf=("any",)),
                        exprs.sized_expr(rng, 38, 44)))
        shape = rng.randrange(3)
        if shape == 0:
            out.append(("star", core))
        elif shape == 1:
            out.append(("plus", core))
        else:
            out.append(("cat", (exprs.random_tree(rng, 3), ("star", core))))
    return out


def compile_ops(rx, seed: int, quick: bool = False) -> list[Op]:
    """Parse, compile and match expressions with intersections."""
    rng = random.Random(f"compile:{seed}")
    ab = rx.rex.Alphabet(("0", "1"))
    # Fixed lengths, seeded letters: matching a heavy automaton costs in
    # proportion to the total length of the words.
    words = [exprs.random_word(rng, k) for k in (0, 1, 2, 3, 4, 5, 6, 7, 3, 5, 6, 7)]
    trees = compile_catalogue(*((12, 3) if quick else (170, 30)))
    return [_compile_op(rx, ab, f"compile/{i}", exprs.variant(tree, rng), words)
            for i, tree in enumerate(trees)]


def _compile_op(rx, ab, name, tree, words) -> Op:
    text = exprs.render(tree)

    def run():
        r = rx.rex.parse(text, ab)
        auto = rx.nfa.compile_regex(r)
        return r, tuple(rx.nfa.matches(auto, w) for w in words), rx.rex.is_positive(r)

    built = once(lambda: exprs.build(tree, rx.rex, ab))
    reference = once(lambda: tuple(rx.rex.regex_matches(built(), w) for w in words))

    def check(out):
        r, answers, positive = out
        return (_expect("parsed tree", r, built())
                or _expect("format/parse round trip",
                           rx.rex.parse(rx.rex.format_regex(r), ab), r)
                or _expect("membership", answers, reference())
                or _expect("is_positive", positive, not reference()[0]))

    def corrupt(out):
        r, answers, positive = out
        return r, (not answers[0],) + answers[1:], positive

    return Op(name, run, check, corrupt, "flipped membership answer")


# --- loose -------------------------------------------------------------------

# Puzzle families with closed-form solution counts.
FAMILIES = {
    "free": ("(0|1)*", "(0|1)*", lambda m, n: 2 ** (m * n)),
    "monotone-columns": ("(0|1)*", "0*1*", lambda m, n: (m + 1) ** n),
    "monotone": ("0*1*", "0*1*", lambda m, n: comb(m + n, m)),
    "column-has-1": ("(0|1)*", "(0|1)*1(0|1)*", lambda m, n: (2 ** m - 1) ** n),
}

# (family, m, n, verb): solution counts spread evenly on a log scale from 1
# to ~8000, so neither the median nor the tail sits on a gap in the costs.
LADDER = [
    ("free", 1, 1, "count"), ("free", 1, 3, "count"), ("free", 2, 2, "count"),
    ("free", 2, 3, "count"), ("free", 2, 4, "count"), ("free", 3, 3, "count"),
    ("free", 2, 5, "count"), ("free", 3, 4, "count"), ("free", 2, 6, "count"),
    ("monotone-columns", 2, 2, "count"), ("monotone-columns", 3, 3, "count"),
    ("monotone-columns", 3, 4, "count"), ("monotone-columns", 4, 4, "count"),
    ("monotone-columns", 2, 7, "count"), ("monotone-columns", 4, 5, "count"),
    ("monotone-columns", 5, 5, "count"),
    ("monotone", 2, 2, "count"), ("monotone", 3, 3, "count"), ("monotone", 4, 4, "count"),
    ("monotone", 5, 5, "count"), ("monotone", 6, 6, "count"), ("monotone", 7, 7, "count"),
    ("monotone", 4, 9, "count"),
    ("column-has-1", 1, 5, "count"), ("column-has-1", 2, 2, "count"),
    ("column-has-1", 2, 4, "count"), ("column-has-1", 3, 3, "count"),
    ("column-has-1", 2, 6, "count"), ("column-has-1", 3, 4, "count"),
    ("column-has-1", 4, 3, "count"),
] + [
    (family, m, n, verb)
    for family in FAMILIES
    for m, n in ((3, 3), (4, 4), (1, 6))
    for verb in ("solve", "unique")
]


def _least_grid(family, m, n):
    """The row-major least solution of a closed-form family."""
    if family == "column-has-1":
        return tuple((0,) * n for _ in range(m - 1)) + ((1,) * n,)
    return tuple((0,) * n for _ in range(m))


def loose_catalogue(count: int) -> list:
    """Random small puzzles: (tokens, row, column, m, n).  The grid sizes
    keep every puzzle below 64 candidate grids for a binary alphabet and
    81 for a ternary one, well under the cost of the ladder's tail."""
    rng = random.Random("loose:catalogue")
    out = []
    for _ in range(count):
        tokens = ("0", "1", "2")[: rng.choice((2, 2, 3))]
        limit = 6 if len(tokens) == 2 else 4
        m, n = rng.choice([(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a * b <= limit])
        out.append((tokens, exprs.random_expr(rng, 3, tokens),
                    exprs.random_expr(rng, 3, tokens), m, n))
    return out


def loose_ops(rx, seed: int, quick: bool = False) -> list[Op]:
    """Closed-form counting puzzles plus seeded random small puzzles."""
    rng = random.Random(f"loose:{seed}")
    ladder = LADDER[::6] if quick else LADDER
    ops = [_family_op(rx, family, m, n, verb) for family, m, n, verb in ladder]
    for i, (tokens, row, col, m, n) in enumerate(loose_catalogue(6 if quick else 50)):
        rename = exprs.permutation(rng, tokens)
        ops.append(_random_puzzle_op(rx, f"loose/random-{i}", tokens,
                                     exprs.variant(row, rng, rename),
                                     exprs.variant(col, rng, rename), m, n))
    return ops


def _family_op(rx, family, m, n, verb) -> Op:
    row, col, count = FAMILIES[family]
    text = puzzle_text(("0", "1"), row, col)
    name = f"loose/{family}-{m}x{n}-{verb}"
    total = count(m, n)
    fn = {"count": "count_grids", "solve": "solve", "unique": "is_unique"}[verb]

    def run():
        return getattr(rx.solver, fn)(rx.puzzle.parse_puzzle(text), m, n)

    if verb == "count":
        return Op(name, run, lambda out: _expect("count", out, total),
                  lambda out: out + 1, "count off by one")
    if verb == "unique":
        return Op(name, run, lambda out: _expect("is_unique", out, total == 1),
                  lambda out: not out, "flipped uniqueness answer")
    least = _least_grid(family, m, n)
    return Op(name, run, lambda out: _expect("least grid", out.cells, least),
              lambda out: _flip_cell(out, rx), "flipped cell")


def _random_puzzle_op(rx, name, tokens, row, col, m, n) -> Op:
    text = puzzle_text(tokens, exprs.render(row), exprs.render(col))

    def run():
        return rx.solver.enumerate_grids(rx.puzzle.parse_puzzle(text), m, n)

    def oracle():
        alphabet = rx.rex.Alphabet(tokens)
        puzzle = rx.puzzle.uniform_puzzle(exprs.build(row, rx.rex, alphabet),
                                          exprs.build(col, rx.rex, alphabet))
        return _cells(rx.oracle.brute_force_crosswords(puzzle, m, n))

    expected = once(oracle)

    def corrupt(out):
        if not out:
            alphabet = rx.rex.Alphabet(tokens)
            return [rx.grids.Grid(alphabet, tuple((0,) * n for _ in range(m)))]
        return [_flip_cell(out[0], rx)] + out[1:]

    return Op(name, run, lambda out: _expect("grids", _cells(out), expected()),
              corrupt, "flipped cell")


# --- forced ------------------------------------------------------------------

def forced_ops(rx, seed: int, quick: bool = False) -> list[Op]:
    """Puzzles built by the reductions, solved at their forced size."""
    rng = random.Random(f"forced:{seed}")
    m = rx.machines
    runs = [(m.demo_machine(), w) for w in ("a", "aa", "aaa")]
    runs += [(m.zigzag_machine(), w) for w in ("a", "aa", "aaa")]
    runs += [(m.overwriting_machine(), exprs.random_word(rng, k, ("a", "b")))
             for k in (1, 2, 2, 3, 3, 4)]
    if quick:
        runs = runs[:2]
    ops = []
    for i, (machine, w) in enumerate(runs):
        for verb in ("solve", "count", "unique"):
            ops.append(_tableau_op(rx, f"forced/tableau-{i}-{w}-{verb}", machine, w, verb))
    sign = rng.choice((1, -1))
    sat = rx.oracle.CnfFormula(1, ((sign,),))
    for verb in ("count", "solve"):
        ops.append(_sat_op(rx, f"forced/sat-{verb}", sat, verb))
    for i, (row, col, m_, n_) in enumerate(binarized_catalogue(1 if quick else 2)):
        # Only the order of the alternatives is seeded: renaming the
        # letters changes the encoded expressions' shape and cost.
        row, col = ("|".join(rng.sample(words, len(words))) for words in (row, col))
        ops.append(_binarized_op(rx, f"forced/binarized-{i}", row, col, m_, n_))
    return ops


def binarized_catalogue(count: int) -> list:
    """Small 1 x 1 letter puzzles with at least one solution:
    (row words, column words, m, n)."""
    rng = random.Random("forced:binarized-catalogue")
    out = []
    for m, n in [(1, 1)] * count:
        while True:
            rows = sorted({exprs.random_word(rng, n) for _ in range(rng.randint(1, 2))})
            cols = sorted({exprs.random_word(rng, m) for _ in range(rng.randint(1, 2))})
            if any(all(c[i] in rows for i in range(m)) for c in cols):
                out.append((rows, cols, m, n))
                break
    return out


def _tableau_lines(rx, machine, w, markers):
    return (rx.tableau.row_expression(machine, w, markers),
            rx.tableau.column_expression(machine, markers))


def _dump_and_parse(rx, puzzle):
    return rx.puzzle.parse_puzzle(rx.puzzle.dump_puzzle(puzzle))


def _tableau_op(rx, name, machine, w, verb) -> Op:
    tableau = rx.turing.build_tableau(rx.turing.simulate(machine, w, 1000))
    dims = tableau.m, tableau.n
    markers = rx.markers.marker_alphabet(machine)

    def run():
        puzzle = rx.puzzle.uniform_puzzle(*_tableau_lines(rx, machine, w, markers))
        puzzle = _dump_and_parse(rx, puzzle)
        if verb == "solve":
            return rx.solver.solve(puzzle, *dims)
        if verb == "count":
            return rx.solver.count_grids(puzzle, *dims)
        return rx.solver.is_unique(puzzle, *dims)

    if verb == "solve":
        return Op(name, run, lambda out: _expect("grid", out.cells, tableau.cells),
                  lambda out: _flip_cell(out, rx), "flipped cell")
    if verb == "count":
        return Op(name, run, lambda out: _expect("count", out, 1),
                  lambda out: out + 1, "count off by one")
    return Op(name, run, lambda out: _expect("is_unique", out, True),
              lambda out: not out, "flipped uniqueness answer")


def _sat_op(rx, name, formula, verb) -> Op:
    def run():
        art = rx.satpipe.sat_reduce(formula)
        puzzle = _dump_and_parse(rx, rx.puzzle.uniform_puzzle(art.row_expr, art.col_expr_square))
        if verb == "count":
            return rx.solver.count_grids(puzzle, art.p, art.p)
        return rx.solver.solve(puzzle, art.p, art.p)

    def expected():
        if verb == "count":
            return rx.oracle.brute_force_sat_count(formula)
        art = rx.satpipe.sat_reduce(formula)
        grids = [rx.satpipe.assignment_tableau(art, (bit,)) for bit in (0, 1)
                 if formula.satisfied_by((bit,))]
        return grids[0].cells

    want = once(expected)
    if verb == "count":
        return Op(name, run, lambda out: _expect("count", out, want()),
                  lambda out: out + 1, "count off by one")
    return Op(name, run, lambda out: _expect("grid", out.cells, want()),
              lambda out: _flip_cell(out, rx), "flipped cell")


def _binarized_op(rx, name, row, col, m, n) -> Op:
    """Letter-square encoding of a small two-letter puzzle."""
    ab = rx.rex.Alphabet(("0", "1"))
    side = 6 * (m + 1) + 1, 6 * (n + 1) + 1

    def run():
        puzzle = rx.puzzle.uniform_puzzle(
            rx.binary.binarize_expr(2, rx.rex.parse(row, ab)),
            rx.binary.binarize_expr(2, rx.rex.parse(col, ab)))
        return rx.solver.enumerate_grids(_dump_and_parse(rx, puzzle), *side)

    def oracle():
        base = rx.puzzle.uniform_puzzle(rx.rex.parse(row, ab), rx.rex.parse(col, ab))
        letters = rx.oracle.brute_force_crosswords(base, m, n)
        return sorted(rx.binary.psi_encode(2, g).cells for g in letters), _cells(letters)

    expected = once(oracle)

    def check(out):
        images, letters = expected()
        bad = _expect("encoded grids", sorted(_cells(out)), images)
        if bad:
            return bad
        decoded = sorted(rx.binary.psi_decode(2, g, ab).cells for g in out)
        return _expect("decoded grids", decoded, sorted(letters))

    return Op(name, run, check, lambda out: [_flip_cell(out[0], rx)] + out[1:],
              "flipped cell")


# --- width -------------------------------------------------------------------

def width_ops(rx, seed: int, quick: bool = False) -> list[Op]:
    """Unbounded-width decisions: tableaux, short tableaux, a looping
    machine and seeded random instances."""
    rng = random.Random(f"width:{seed}")
    m = rx.machines
    runs = [(m.demo_machine(), "a"), (m.demo_machine(), "aa"), (m.zigzag_machine(), "a")]
    runs += [(m.overwriting_machine(), exprs.random_word(rng, k, ("a", "b"))) for k in (1, 2)]
    if quick:
        runs = runs[:1]
    ops = []
    for i, (machine, w) in enumerate(runs):
        ops.append(_width_tableau_op(rx, f"width/tableau-{i}-{w}", machine, w, short=False))
        ops.append(_width_tableau_op(rx, f"width/short-{i}-{w}", machine, w, short=True))
    for rows in range(1, 3 if quick else 9):
        ops.append(_width_bounce_op(rx, f"width/bounce-{rows}", rows))
    ab = rx.rex.Alphabet(("0", "1"))
    for i, (rows, col) in enumerate(width_catalogue(4 if quick else 32)):
        rename = exprs.permutation(rng)
        ops.append(_width_random_op(rx, ab, f"width/random-{i}",
                                    [exprs.variant(r, rng, rename) for r in rows],
                                    exprs.variant(col, rng, rename)))
    return ops


def width_catalogue(count: int) -> list:
    """Random instances: one to three row expressions and a column one."""
    rng = random.Random("width:catalogue")
    return [([exprs.random_expr(rng, 3) for _ in range(rng.randint(1, 3))],
             exprs.random_expr(rng, 3)) for _ in range(count)]


def _wrong_width(out, rx):
    if out.exists:
        return rx.solver.WidthResult(True, out.width + 1, out.grid)
    return rx.solver.WidthResult(True, 1, None)


def _width_tableau_op(rx, name, machine, w, short) -> Op:
    tableau = rx.turing.build_tableau(rx.turing.simulate(machine, w, 1000))
    rows = tableau.m - (1 if short else 0)
    markers = rx.markers.marker_alphabet(machine)

    def run():
        row, col = _tableau_lines(rx, machine, w, markers)
        return rx.solver.decide_unbounded_width([row] * rows, col)

    def check(out):
        if short:
            return _expect("exists", out.exists, False)
        return (_expect("exists", out.exists, True)
                or _expect("width", out.width, tableau.n)
                or _expect("witness", out.grid.cells, tableau.cells))

    return Op(name, run, check, lambda out: _wrong_width(out, rx), "wrong width")


def _width_bounce_op(rx, name, rows) -> Op:
    machine = rx.machines.bouncing_machine()
    markers = rx.markers.marker_alphabet(machine)

    def run():
        row, col = _tableau_lines(rx, machine, "a", markers)
        return rx.solver.decide_unbounded_width([row] * rows, col)

    return Op(name, run, lambda out: _expect("exists", out.exists, False),
              lambda out: _wrong_width(out, rx), "wrong width")


# Random instances are searched by brute force up to width 8 and this
# many cells: 2**12 grids at most, far below the oracle's cap.
_BRUTE_CELLS = 12


def _width_random_op(rx, ab, name, rows, col) -> Op:
    texts = [exprs.render(r) for r in rows]
    col_text = exprs.render(col)

    def run():
        return rx.solver.decide_unbounded_width([rx.rex.parse(t, ab) for t in texts],
                                                rx.rex.parse(col_text, ab))

    built = once(lambda: ([exprs.build(r, rx.rex, ab) for r in rows],
                          exprs.build(col, rx.rex, ab)))

    def brute_force():
        """(least width with a solution or None, widest width scanned)."""
        row_exprs, col_expr = built()
        puzzle = rx.puzzle.Puzzle(ab, tuple(row_exprs), col_expr)
        widest = min(8, _BRUTE_CELLS // len(rows))
        for n in range(1, widest + 1):
            if rx.oracle.brute_force_crosswords(puzzle, len(rows), n):
                return n, widest
        return None, widest

    brute = once(brute_force)

    def check(out):
        row_exprs, col_expr = built()
        least, widest = brute()
        if not out.exists:
            return _expect("least width by brute force", least, None)
        g = out.grid
        if g is None or g.n != out.width or g.m != len(rows):
            return f"witness shape {g and (g.m, g.n)} does not match width {out.width}"
        for i, r in enumerate(row_exprs):
            if not rx.rex.regex_matches(r, g.row(i)):
                return f"witness row {i} is not in its language"
        for j in range(g.n):
            if not rx.rex.regex_matches(col_expr, g.col(j)):
                return f"witness column {j} is not in its language"
        if least is not None:
            return _expect("least width by brute force", out.width, least)
        if out.width <= widest:
            return f"width {out.width} but brute force finds no grid up to width {widest}"
        return None

    return Op(name, run, check, lambda out: _wrong_width(out, rx), "wrong width")


WORKLOADS = {
    "compile": compile_ops,
    "loose": loose_ops,
    "forced": forced_ops,
    "width": width_ops,
}
