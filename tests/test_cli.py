"""Command line interface and file format round-trips."""

import re
from pathlib import Path

import pytest

from rxc.cli import run
from rxc.grids import dump_grid, parse_grid, read_grid
from rxc.machines import bouncing_machine, demo_machine
from rxc.oracle import dump_dimacs
from rxc.puzzle import dump_puzzle, parse_puzzle, read_puzzle, uniform_puzzle
from rxc.rex import Alphabet, parse
from rxc.solver import enumerate_grids
from rxc.turing import TuringMachine, dump_machine

from util import AB, formula


@pytest.fixture
def puzzle_file(tmp_path):
    path = tmp_path / "p.rxc"
    path.write_text("alphabet = 0 1\nR* = (01|10)\nC* = (01|10)\n")
    return str(path)


def test_solve_count_verify(puzzle_file, tmp_path, capsys):
    out = str(tmp_path / "g.grid")
    assert run(["solve", puzzle_file, "-m", "2", "-n", "2", "--out", out]) == 0
    puzzle = read_puzzle(puzzle_file)
    grid = read_grid(out, puzzle.alphabet)
    assert grid.cells == ((0, 1), (1, 0))  # the least of the two solutions

    assert run(["count", puzzle_file, "-m", "2", "-n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    assert run(["verify", puzzle_file, out]) == 0
    assert run(["unique", puzzle_file, "-m", "2", "-n", "2"]) == 1


def test_solve_no_solution(tmp_path):
    p = tmp_path / "p.rxc"
    p.write_text("alphabet = 0\nR* = 00\nC* = 00\n")
    assert run(["solve", str(p), "-m", "1", "-n", "1"]) == 1


def test_enum_cap(puzzle_file, capsys):
    assert run(["enum", puzzle_file, "-m", "2", "-n", "2", "--cap", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("2 2") == 1
    # A cap below 1 is a usage error, not a "no solution".
    for cap in ("0", "-1"):
        assert run(["enum", puzzle_file, "-m", "2", "-n", "2", "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --cap must be at least 1"]
    # The library takes 0 (no grid) and refuses a negative cap itself.
    puzzle = read_puzzle(puzzle_file)
    assert enumerate_grids(puzzle, 2, 2, cap=0) == []
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        enumerate_grids(puzzle, 2, 2, cap=-1)


def test_plural_verb(tmp_path):
    p = tmp_path / "p.rxc"
    p.write_text("alphabet = 0\nR* = 00\nC* = 00\n")
    assert run(["plural", str(p)]) == 0
    p.write_text("alphabet = 0\nR* = 0+\nC* = 0+\n")
    assert run(["plural", str(p)]) == 1


def test_decide_width_verb(tmp_path, capsys):
    p = tmp_path / "p.rxc"
    p.write_text("alphabet = 0 1\nR = 0*1\nR = 1*\nC* = (0|1)(0|1)\n")
    assert run(["decide-width", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"
    p.write_text("alphabet = 0 1\nR = 01\nR = 10\nC* = 00|11\n")
    assert run(["decide-width", str(p)]) == 1
    # -m must agree with the row list: a usage error, not a 2-row answer
    p.write_text("alphabet = 0 1\nR = 0\nR = 1\nC* = (0|1)*\n")
    capsys.readouterr()
    assert run(["decide-width", str(p), "-m", "2"]) == 0
    capsys.readouterr()
    assert run(["decide-width", str(p), "-m", "5"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["error: -m 5 does not match the 2 row expressions"]


def test_decide_width_refuses_fixed_columns(tmp_path, capsys):
    # The verb picks the width itself; a file that fixes it is refused,
    # not answered with a grid of another width.
    p = tmp_path / "p.rxc"
    p.write_text("alphabet = 0 1\nrows = 1\ncols = 2\nR* = 0*1\nC* = 0|1\n")
    assert run(["decide-width", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "error: decide-width decides over every width, but the puzzle fixes 2 columns; use solve"]


def test_usage_errors(tmp_path, puzzle_file):
    assert run(["solve", puzzle_file]) == 2            # missing dimensions
    assert run(["solve", str(tmp_path / "nope.rxc"), "-m", "1", "-n", "1"]) == 2
    assert run(["bogus-verb"]) == 2
    deep = tmp_path / "deep.rxc"                       # a crash is not a "no"
    deep.write_text("alphabet = 0\nR* = " + "(" * 3000 + "0" + ")" * 3000 + "\nC* = 0\n")
    assert run(["solve", str(deep), "-m", "1", "-n", "1"]) == 2
    cnf = tmp_path / "short.cnf"                       # header promises 5 clauses
    cnf.write_text("p cnf 2 5\n1 2 0\n")
    assert run(["sat", "count", str(cnf)]) == 2


def test_tm_verbs(tmp_path, capsys):
    mpath = tmp_path / "demo.tm"
    mpath.write_text(dump_machine(demo_machine()))
    assert run(["tm", "simulate", str(mpath), "-w", "a"]) == 0
    assert "halts after 5 steps" in capsys.readouterr().out
    assert run(["tm", "validate", str(mpath), "-w", "a"]) == 0

    tpath = tmp_path / "t.grid"
    assert run(["tm", "tableau", str(mpath), "-w", "a", "--out", str(tpath)]) == 0

    ppath = tmp_path / "demo.rxc"
    assert run(["tm", "reduce", str(mpath), "-w", "a", "--out", str(ppath)]) == 0
    puzzle = read_puzzle(str(ppath))
    assert run(["verify", str(ppath), str(tpath)]) == 0


def test_tm_reduce_refuses_a_run_that_breaks_a_convention(tmp_path, capsys):
    # (q1,B) -> (q2,B,L) halts after 7 steps on "a" but moves left of its
    # floor; the reduced puzzle would have no grid, a wrong "no".
    m = demo_machine()
    rules = dict(m.rules)
    rules[("q1", "B")] = ("q2", "B", "L")
    mpath = tmp_path / "bad.tm"
    mpath.write_text(dump_machine(TuringMachine(m.states, m.tape_symbols, m.blank,
                                                m.start, m.halt, rules)))
    ppath = tmp_path / "bad.rxc"
    assert run(["tm", "validate", str(mpath), "-w", "a"]) == 1
    capsys.readouterr()
    assert run(["tm", "reduce", str(mpath), "-w", "a", "--out", str(ppath)]) == 2
    assert capsys.readouterr().err == (
        "error: run convention 3 fails: moves left of cell -1 at step 2\n")
    assert not ppath.exists()
    # --max-steps bounds the check: within one step nothing fails yet
    assert run(["tm", "reduce", str(mpath), "-w", "a", "--max-steps", "1",
                "--out", str(ppath)]) == 0
    # a machine still running at --max-steps ("unknown") still reduces
    bpath = tmp_path / "bouncing.tm"
    bpath.write_text(dump_machine(bouncing_machine()))
    assert run(["tm", "reduce", str(bpath), "-w", "a", "--out", str(ppath)]) == 0


def test_pipeline_composition(tmp_path):
    # reduce -> solve -> verify -> tableau: the two grid files are identical
    mpath = tmp_path / "demo.tm"
    mpath.write_text(dump_machine(demo_machine()))
    ppath = tmp_path / "demo.rxc"
    spath = tmp_path / "solved.grid"
    tpath = tmp_path / "tab.grid"
    assert run(["tm", "reduce", str(mpath), "-w", "a", "--out", str(ppath)]) == 0
    assert run(["solve", str(ppath), "-m", "6", "-n", "4", "--out", str(spath)]) == 0
    assert run(["verify", str(ppath), str(spath)]) == 0
    assert run(["tm", "tableau", str(mpath), "-w", "a", "--out", str(tpath)]) == 0
    assert spath.read_text() == tpath.read_text()


def test_squarified_reduction_round_trip(tmp_path, capsys):
    # The 6-row run padded with blank columns is the one 6x6 solution.
    mpath = tmp_path / "demo.tm"
    mpath.write_text(dump_machine(demo_machine()))
    ppath = tmp_path / "square.rxc"
    assert run(["tm", "reduce", str(mpath), "-w", "a", "--square", "--out", str(ppath)]) == 0
    capsys.readouterr()
    assert run(["count", str(ppath), "-m", "6", "-n", "6"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["unique", str(ppath), "-m", "6", "-n", "6"]) == 0


def test_merge_and_binarize_verbs(tmp_path, capsys):
    p = tmp_path / "p.rxc"
    p.write_text("alphabet = 0 1\nR* = 00\nC* = 00\n")
    merged = tmp_path / "m.rxc"
    assert run(["merge", str(p), "--out", str(merged)]) == 0
    mp = read_puzzle(str(merged))
    assert mp.alphabet.tokens == ("0", "1", "hrt", "dmd", "spd")

    binp = tmp_path / "b.rxc"
    assert run(["binarize", str(p), "-k", "2", "--out", str(binp)]) == 0
    bp = read_puzzle(str(binp))
    assert bp.alphabet.tokens == ("0", "1")


def test_merge_keeps_a_square_size(tmp_path, capsys):
    # (x1 or x2) reduces to a p x p puzzle; merged, its (E,E) grids are
    # (p + 1) x (p + 1), two per satisfying assignment (framed as is and
    # transposed), so count needs no -m or -n.
    cnf = tmp_path / "f.cnf"
    cnf.write_text(dump_dimacs(formula(2, (1, 2))))
    rpath, epath = tmp_path / "r.rxc", tmp_path / "e.rxc"
    assert run(["sat", "reduce", str(cnf), "--out", str(rpath)]) == 0
    assert run(["merge", str(rpath), "--out", str(epath)]) == 0
    p = read_puzzle(str(rpath)).fixed_rows
    merged = read_puzzle(str(epath))
    assert (merged.fixed_rows, merged.fixed_cols) == (p + 1, p + 1)
    capsys.readouterr()
    assert run(["count", str(epath)]) == 0
    assert capsys.readouterr().out == "6\n"
    # A non-square size fixes neither side of the merged file.
    rect = tmp_path / "rect.rxc"
    rect.write_text("alphabet = 0 1\nrows = 2\ncols = 3\nR* = 0(0|1)*\nC* = 1(0|1)*\n")
    assert run(["merge", str(rect), "--out", str(epath)]) == 0
    merged = read_puzzle(str(epath))
    assert (merged.fixed_rows, merged.fixed_cols) == (None, None)


def test_encode_decode_grid_verbs(tmp_path):
    gpath = tmp_path / "g.grid"
    gpath.write_text("1 1\n1\n")
    epath = tmp_path / "e.grid"
    assert run(["encode-grid", str(gpath), "-k", "2", "--out", str(epath)]) == 0
    enc = read_grid(str(epath), Alphabet(("0", "1")))
    assert (enc.m, enc.n) == (13, 13)
    dpath = tmp_path / "d.grid"
    assert run(["decode-grid", str(epath), "-k", "2", "--out", str(dpath)]) == 0
    assert dpath.read_text() == "1 1\n1\n"
    # corrupting the encoding is an input error
    bad = tmp_path / "bad.grid"
    bad.write_text("13 13\n" + "\n".join(" ".join("0" * 13) for _ in range(13)) + "\n")
    assert run(["decode-grid", str(bad), "-k", "2"]) == 2


def test_sat_verbs(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(dump_dimacs(formula(1, (1,))))
    assert run(["sat", "count", str(cnf)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    rpath = tmp_path / "r.rxc"
    assert run(["sat", "reduce", str(cnf), "--out", str(rpath)]) == 0
    pz = read_puzzle(str(rpath))
    assert pz.fixed_rows == pz.fixed_cols == 8


def test_vc_and_3sat_verbs(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("3 3\n1 2\n2 3\n1 3\n")
    out = tmp_path / "vc.rxc"
    assert run(["vc", "reduce", str(gpath), "-k", "2", "--out", str(out)]) == 0
    pz = read_puzzle(str(out))
    assert run(["solve", str(out), "-m", "3", "-n", "4"]) == 0

    cnf = tmp_path / "f3.cnf"
    cnf.write_text(dump_dimacs(formula(3, (1, 2, 3))))
    tsp = tmp_path / "ts.rxc"
    assert run(["3sat", "reduce", str(cnf), "--out", str(tsp)]) == 0
    assert run(["solve", str(tsp), "-m", "1", "-n", "3"]) == 0


def test_puzzle_file_roundtrip():
    p = uniform_puzzle(parse("(01|10)*1", AB), parse("0?1+", AB), 2, 3)
    assert parse_puzzle(dump_puzzle(p)) == p


def test_readme_puzzle_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**Puzzle files**"):]
    start = section.index("```\n") + 4
    p = parse_puzzle(section[start:section.index("```", start)])
    assert (p.fixed_rows, p.fixed_cols) == (2, 2)
    assert p.rows == p.cols == parse("(01|10)", p.alphabet)


def test_multi_line_header_comments_stay_comments():
    p = uniform_puzzle(parse("(01|10)*1", AB), parse("0?1+", AB), 2, 3)
    text = dump_puzzle(p, ["made by hand\nrows = 5", "", "cols = 7\r\nR* = 0"])
    assert text.splitlines()[:5] == ["# made by hand", "# rows = 5", "# ",
                                     "# cols = 7", "# R* = 0"]
    assert parse_puzzle(text) == p


def test_puzzle_file_errors_name_their_line():
    head = "alphabet = 0 1\n"
    tail = "R* = 0*\nC* = 0*\n"
    repeated = {
        "alphabet": head + "rows = 2\n" + head + tail,
        "rows": head + "rows = 2\nrows = 3\n" + tail,
        "cols": head + "cols = 2\ncols = 3\n" + tail,
        "R*": head + "R* = 0*\nR* = 1*\nC* = 0*\n",
        "C*": head + "C* = 0*\nC* = 1*\nR* = 0*\n",
    }
    for key, text in repeated.items():
        with pytest.raises(ValueError, match=re.escape(f"line 3: repeated '{key}' line")):
            parse_puzzle(text)
    with pytest.raises(ValueError, match="^line 2: rows must be an integer, got 'two'$"):
        parse_puzzle(head + "rows = two\n" + tail)
    # Per-line expressions repeat their key by design.
    assert parse_puzzle(head + "R = 0\nR = 1\nC* = 0|1\n").fixed_rows == 2


def test_fixed_dimensions_refuse_other_flags(tmp_path, capsys):
    p = tmp_path / "p.rxc"
    p.write_text("alphabet = 0 1\nrows = 2\ncols = 2\nR* = (01|10)\nC* = (01|10)\n")
    assert run(["count", str(p)]) == 0
    assert run(["count", str(p), "-m", "2", "-n", "2"]) == 0
    assert capsys.readouterr().out.split() == ["2", "2"]
    for verb, flags, asked in (("solve", ["-m", "3"], "3 rows"),
                               ("count", ["-m", "3", "-n", "1"], "3 rows"),
                               ("enum", ["-n", "3"], "3 columns"),
                               ("unique", ["-m", "1"], "1 rows"),
                               ("decide-width", ["-m", "3"], "3 rows")):
        assert run([verb, str(p), *flags]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: asked for {asked}, puzzle fixes 2"]


def test_grid_file_roundtrip():
    from rxc.grids import Grid

    g = Grid.from_strings(AB, ["01", "10"])
    assert parse_grid(dump_grid(g), AB).cells == g.cells
    mk = Alphabet(("[B]", "[B,q0]", "<B|q1>"))
    g2 = Grid.from_tokens(mk, [["[B]", "<B|q1>"], ["[B,q0]", "[B]"]])
    assert parse_grid(dump_grid(g2), mk).cells == g2.cells
