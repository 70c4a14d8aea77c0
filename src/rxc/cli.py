"""Command line front end.

Exit codes: 0 for yes/success, 1 for a negative answer from a decision
verb, 2 for usage or input errors and any other failure.  All file
formats are UTF-8 with LF newlines and full-line ``#`` comments; see the
package README.
"""

from __future__ import annotations

import argparse
import sys

from .grids import dump_grid, read_grid, write_grid
from .oracle import brute_force_sat_count, read_dimacs, read_graph
from .puzzle import Puzzle, read_puzzle, uniform_puzzle, write_puzzle
from .rex import Regex
from .reductions import (
    binarize_expr,
    column_expression,
    marker_alphabet,
    merge_rc,
    psi_decode,
    psi_encode,
    row_expression,
    sat_reduce,
    squarify_col_expr,
    threesat_reduce,
    vc_reduce,
)
from .rex import Alphabet
from .solver import (
    DimensionError,
    count_grids,
    decide_unbounded_width,
    enumerate_grids,
    is_plural,
    is_unique,
    solve,
    verify,
)
from .turing import (AssumptionError, build_tableau, read_machine, run_path, simulate,
                     validate_assumptions)


class UsageError(ValueError):
    pass


def _uniform_exprs(puzzle: Puzzle) -> tuple[Regex, Regex]:
    if not puzzle.uniform:
        raise UsageError("this command needs a puzzle with uniform R* and C* expressions")
    return puzzle.rows, puzzle.cols


def _dims(puzzle: Puzzle, args) -> tuple[int, int]:
    m = args.m if args.m is not None else puzzle.fixed_rows
    n = args.n if args.n is not None else puzzle.fixed_cols
    if m is None or n is None:
        raise UsageError("grid dimensions missing: pass -m/-n or fix them in the puzzle file")
    return m, n


def _emit_grid(grid, out: str | None) -> None:
    if out:
        write_grid(grid, out)
    else:
        sys.stdout.write(dump_grid(grid))


def _emit_puzzle(puzzle, out: str | None, comments) -> None:
    if out:
        write_puzzle(puzzle, out, comments)
    else:
        from .puzzle import dump_puzzle

        sys.stdout.write(dump_puzzle(puzzle, comments))


def _cmd_solve(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    m, n = _dims(puzzle, args)
    grid = solve(puzzle, m, n)
    if grid is None:
        print("no solution", file=sys.stderr)
        return 1
    _emit_grid(grid, args.out)
    return 0


def _cmd_enum(args) -> int:
    if args.cap is not None and args.cap < 1:
        raise UsageError("--cap must be at least 1")
    puzzle = read_puzzle(args.puzzle)
    m, n = _dims(puzzle, args)
    grids = enumerate_grids(puzzle, m, n, cap=args.cap)
    chunks = [dump_grid(g) for g in grids]
    text = "\n".join(chunks)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return 0 if grids else 1


def _cmd_count(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    m, n = _dims(puzzle, args)
    print(count_grids(puzzle, m, n))
    return 0


def _cmd_unique(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    m, n = _dims(puzzle, args)
    return 0 if is_unique(puzzle, m, n) else 1


def _cmd_verify(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    grid = read_grid(args.grid, puzzle.alphabet)
    return 0 if verify(puzzle, grid) else 1


def _cmd_plural(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    row, col = _uniform_exprs(puzzle)
    return 0 if is_plural(row, col) else 1


def _cmd_decide_width(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    if not isinstance(puzzle.cols, Regex):
        raise UsageError("decide-width needs a uniform column expression")
    if isinstance(puzzle.rows, Regex):
        m = args.m if args.m is not None else puzzle.fixed_rows
        if m is None:
            raise UsageError("pass -m (or fix rows in the file) for a uniform row expression")
        if puzzle.fixed_rows is not None and m != puzzle.fixed_rows:
            raise DimensionError(f"asked for {m} rows, puzzle fixes {puzzle.fixed_rows}")
        rows = [puzzle.rows] * m
    else:
        if args.m is not None and args.m != len(puzzle.rows):
            raise UsageError(f"-m {args.m} does not match the {len(puzzle.rows)} row expressions")
        rows = list(puzzle.rows)
    if puzzle.fixed_cols is not None:
        raise UsageError(f"decide-width decides over every width, but the puzzle fixes "
                         f"{puzzle.fixed_cols} columns; use solve")
    result = decide_unbounded_width(rows, puzzle.cols)
    if not result.exists:
        print("no", file=sys.stderr)
        return 1
    print(result.width)
    if result.grid is not None:
        _emit_grid(result.grid, args.out)
    return 0


def _cmd_tm_simulate(args) -> int:
    machine = read_machine(args.machine)
    path = run_path(machine, args.w, args.max_steps)
    heads = [head for _, head in path]
    state, head = path[-1]
    halted = state == machine.halt
    status = "halts" if halted else "still running"
    print(f"{status} after {len(path) - 1} steps; {len(path)} configurations, "
          f"{max(heads) - min(heads) + 1} scanned cells")
    print(f"final state {state}, head at cell {head}")
    return 0 if halted else 1


def _cmd_tm_validate(args) -> int:
    machine = read_machine(args.machine)
    report = validate_assumptions(machine, args.w, args.max_steps)
    for idx, (status, note) in enumerate(zip(report.statuses, report.notes), start=1):
        print(f"assumption {idx}: {status}  ({note})")
    return 0 if report.all_pass else 1


def _cmd_tm_tableau(args) -> int:
    machine = read_machine(args.machine)
    # The tape windows grow with steps times cells: keep them only for
    # a run that halts.
    if run_path(machine, args.w, args.max_steps)[-1][0] != machine.halt:
        print(f"machine did not halt within {args.max_steps} steps", file=sys.stderr)
        return 1
    _emit_grid(build_tableau(simulate(machine, args.w, args.max_steps)), args.out)
    return 0


def _cmd_tm_reduce(args) -> int:
    # A broken convention would make a puzzle with no grid, a wrong "no";
    # "unknown" passes, so machines that do not halt still reduce.
    machine = read_machine(args.machine)
    report = validate_assumptions(machine, args.w, args.max_steps)
    for idx, (status, note) in enumerate(zip(report.statuses, report.notes), start=1):
        if status == "fail":
            raise AssumptionError(f"run convention {idx} fails: {note}")
    markers = marker_alphabet(machine)
    row = row_expression(machine, args.w, markers)
    col = column_expression(machine, markers)
    comments = [f"halting-run crossword expressions for input {args.w!r}"]
    if args.square:
        col = squarify_col_expr(col, machine)
        comments.append("column expression also admits all-blank padding columns")
    _emit_puzzle(uniform_puzzle(row, col), args.out, comments)
    return 0


def _cmd_merge(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    row, col = _uniform_exprs(puzzle)
    merged = merge_rc(row, col)
    # A p x p solution is framed into a (p + 1) x (p + 1) grid, either
    # way round; a non-square size has no one merged size.
    side = puzzle.fixed_rows
    side = side + 1 if side is not None and side == puzzle.fixed_cols else None
    _emit_puzzle(
        uniform_puzzle(merged, merged, side, side),
        args.out,
        ["edge-marker merge of the row and column expressions"],
    )
    return 0


def _cmd_binarize(args) -> int:
    puzzle = read_puzzle(args.puzzle)
    row, col = _uniform_exprs(puzzle)
    k = args.k if args.k is not None else len(puzzle.alphabet)
    if k != len(puzzle.alphabet):
        raise UsageError(f"-k {k} does not match the {len(puzzle.alphabet)}-letter alphabet")
    out = uniform_puzzle(binarize_expr(k, row), binarize_expr(k, col))
    _emit_puzzle(out, args.out, [f"letter-square binary encoding, k={k}"])
    return 0


def _cmd_encode_grid(args) -> int:
    alphabet = Alphabet(args.alphabet.split()) if args.alphabet else None
    if alphabet is None:
        alphabet = Alphabet(tuple(str(i) for i in range(args.k)))
    grid = read_grid(args.grid, alphabet)
    _emit_grid(psi_encode(args.k, grid), args.out)
    return 0


def _cmd_decode_grid(args) -> int:
    from .reductions import BINARY

    grid = read_grid(args.grid, BINARY)
    alphabet = Alphabet(args.alphabet.split()) if args.alphabet else None
    _emit_grid(psi_decode(args.k, grid, alphabet), args.out)
    return 0


def _cmd_sat_reduce(args) -> int:
    formula = read_dimacs(args.cnf)
    art = sat_reduce(formula)
    comments = [
        "clocked-evaluator crossword for the CNF formula",
        f"clock p={art.p}; marker alphabet size {art.ell}; binary side q={art.q}",
    ]
    if args.binary:
        puzzle = uniform_puzzle(art.row_expr_binary, art.col_expr_binary,
                                fixed_rows=art.q, fixed_cols=art.q)
    else:
        puzzle = uniform_puzzle(art.row_expr, art.col_expr_square,
                                fixed_rows=art.p, fixed_cols=art.p)
    _emit_puzzle(puzzle, args.out, comments)
    return 0


def _cmd_sat_count(args) -> int:
    formula = read_dimacs(args.cnf)
    print(brute_force_sat_count(formula))
    return 0


def _cmd_vc_reduce(args) -> int:
    graph = read_graph(args.graph, args.k)
    puzzle = vc_reduce(graph)
    _emit_puzzle(puzzle, args.out,
                 [f"vertex-cover crossword, budget k={args.k}"])
    return 0


def _cmd_3sat_reduce(args) -> int:
    formula = read_dimacs(args.cnf)
    puzzle = threesat_reduce(formula)
    _emit_puzzle(puzzle, args.out,
                 ["exactly-3-CNF crossword with constant columns"])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rxc", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    def dims(p):
        p.add_argument("-m", type=int, default=None, help="row count")
        p.add_argument("-n", type=int, default=None, help="column count")

    p = add("solve", _cmd_solve, help="least solution at fixed dimensions")
    p.add_argument("puzzle")
    dims(p)
    p.add_argument("--out", default=None)

    p = add("enum", _cmd_enum, help="all solutions at fixed dimensions")
    p.add_argument("puzzle")
    dims(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None)

    p = add("count", _cmd_count, help="exact number of solutions")
    p.add_argument("puzzle")
    dims(p)

    p = add("unique", _cmd_unique, help="is the solution unique?")
    p.add_argument("puzzle")
    dims(p)

    p = add("verify", _cmd_verify, help="check a grid against a puzzle")
    p.add_argument("puzzle")
    p.add_argument("grid")

    p = add("plural", _cmd_plural, help="positive expressions and no 1-row/1-column solutions?")
    p.add_argument("puzzle")

    p = add("decide-width", _cmd_decide_width,
            help="existence for fixed rows and unbounded width")
    p.add_argument("puzzle")
    p.add_argument("-m", type=int, default=None, help="row count for a uniform row expression")
    p.add_argument("--out", default=None)

    tm = sub.add_parser("tm", help="Turing machine commands")
    tmsub = tm.add_subparsers(dest="tmverb", required=True)

    def add_tm(name, fn, **kw):
        p = tmsub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("machine")
        p.add_argument("-w", default="", help="input string (one symbol per character)")
        p.add_argument("--max-steps", type=int, default=10000)
        return p

    add_tm("simulate", _cmd_tm_simulate, help="run the machine")
    add_tm("validate", _cmd_tm_validate, help="check the run conventions")
    p = add_tm("tableau", _cmd_tm_tableau, help="grid of the halting run")
    p.add_argument("--out", default=None)
    p = add_tm("reduce", _cmd_tm_reduce, help="emit the run-tableau puzzle")
    p.add_argument("--square", action="store_true",
                   help="also admit all-blank padding columns")
    p.add_argument("--out", default=None)

    p = add("merge", _cmd_merge, help="merge uniform R and C into one expression")
    p.add_argument("puzzle")
    p.add_argument("--out", default=None)

    p = add("binarize", _cmd_binarize, help="binary encoding of a uniform puzzle")
    p.add_argument("puzzle")
    p.add_argument("-k", type=int, default=None, help="alphabet size (defaults to the file's)")
    p.add_argument("--out", default=None)

    p = add("encode-grid", _cmd_encode_grid, help="letter-square encode a grid")
    p.add_argument("grid")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--alphabet", default=None, help="space-separated tokens (default digits)")
    p.add_argument("--out", default=None)

    p = add("decode-grid", _cmd_decode_grid, help="validate and decode an encoded grid")
    p.add_argument("grid")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--alphabet", default=None, help="tokens for the decoded grid")
    p.add_argument("--out", default=None)

    sat = sub.add_parser("sat", help="CNF commands")
    satsub = sat.add_subparsers(dest="satverb", required=True)
    p = satsub.add_parser("reduce", help="crossword artifacts for a DIMACS formula")
    p.set_defaults(fn=_cmd_sat_reduce)
    p.add_argument("cnf")
    p.add_argument("--binary", action="store_true", help="emit the binary-level pair")
    p.add_argument("--out", default=None)
    p = satsub.add_parser("count", help="brute-force satisfying assignment count")
    p.set_defaults(fn=_cmd_sat_count)
    p.add_argument("cnf")

    vc = sub.add_parser("vc", help="vertex cover commands")
    vcsub = vc.add_subparsers(dest="vcverb", required=True)
    p = vcsub.add_parser("reduce", help="per-line crossword for a graph and budget")
    p.set_defaults(fn=_cmd_vc_reduce)
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--out", default=None)

    ts = sub.add_parser("3sat", help="exactly-3-CNF commands")
    tssub = ts.add_subparsers(dest="tsverb", required=True)
    p = tssub.add_parser("reduce", help="constant-column crossword for a 3-CNF formula")
    p.set_defaults(fn=_cmd_3sat_reduce)
    p.add_argument("cnf")
    p.add_argument("--out", default=None)

    return top


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except Exception as exc:  # every failure, not only bad input: a crash is not a "no"
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
