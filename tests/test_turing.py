"""Machines, simulation, assumption checks and tableaux."""

import tracemalloc

import pytest

from rxc.cli import run

from rxc.machines import (
    bouncing_machine,
    demo_machine,
    overwriting_machine,
    zigzag_machine,
)
from rxc.markers import marker_alphabet
from rxc.puzzle import uniform_puzzle
from rxc.reductions import column_expression, row_expression
from rxc.solver import verify
from rxc.turing import (
    AssumptionError,
    MachineError,
    TuringMachine,
    build_tableau,
    dump_machine,
    parse_machine,
    simulate,
    total_machine,
    validate_assumptions,
)


def test_demo_run_shape():
    trace = simulate(demo_machine(), "a", 100)
    assert trace.halted
    assert trace.steps == 5
    assert len(trace.configs) == 6
    assert trace.scanned_cells == 4


def test_demo_assumptions_pass():
    report = validate_assumptions(demo_machine(), "a", 100)
    assert report.statuses == ("pass", "pass", "pass", "pass")


def test_assumption2_syntactic_failure():
    m = demo_machine()
    rules = dict(m.rules)
    rules[("q0", "B")] = ("q0", "B", "L")
    bad = TuringMachine(m.states, m.tape_symbols, m.blank, m.start, m.halt, rules)
    report = validate_assumptions(bad, "a", 50)
    assert report.statuses[1] == "fail"


def test_assumption3_left_move_failure():
    m = demo_machine()
    rules = dict(m.rules)
    rules[("q1", "B")] = ("q2", "B", "L")  # keeps moving left
    bad = TuringMachine(m.states, m.tape_symbols, m.blank, m.start, m.halt, rules)
    report = validate_assumptions(bad, "a", 50)
    assert report.statuses[2] == "fail"


def test_nonhalting_reports_unknown():
    report = validate_assumptions(bouncing_machine(), "a", 200)
    assert report.statuses[2] == "unknown"
    assert report.statuses[3] == "pass"  # scans the cell right of the input early


def test_validate_runs_in_linear_memory():
    # A machine that writes a while running right never halts and keeps
    # the conventions, and its tape grows by a cell a step.  The
    # conventions read only states and heads, so 10,000 steps take a few
    # megabytes; copying the tape at every step, and a window over every
    # cell for every configuration, would take gigabytes.
    runner = total_machine(("q0", "q1", "q2", "qh"), ("B", "a"), "B", "q0", "qh", {
        ("q0", "B"): ("q1", "B", "L"),
        ("q1", "B"): ("q2", "B", "R"),
        ("q2", "B"): ("q2", "a", "R"),
        ("q2", "a"): ("q2", "a", "R"),
    })
    tracemalloc.start()
    try:
        report = validate_assumptions(runner, "a", 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.statuses == ("pass", "pass", "unknown", "pass")
    assert report.notes[2] == "no violation within 10000 steps; machine still running"
    assert peak < 5 << 20


def test_timeout_trace():
    trace = simulate(bouncing_machine(), "a", 50)
    assert not trace.halted
    assert trace.steps == 50
    trace0 = simulate(demo_machine(), "a", 0)
    assert not trace0.halted


def test_demo_tableau_rows():
    trace = simulate(demo_machine(), "a", 100)
    t = build_tableau(trace)
    assert (t.m, t.n) == (6, 4)
    assert t.row_tokens(0) == ("<B|q1>", "[B,q0]", "[a]", "[B]")
    assert any(tok == "[a,qh]" for tok in t.row_tokens(5))
    # the column of the input cell, cell index 1
    assert t.col_tokens(2) == ("[a]", "[a]", "<a|q3>", "[a,q3]", "<a|qh>", "[a,qh]")
    # the column of cell index 2
    assert t.col_tokens(3) == ("[B]", "[B]", "[B]", "<B|q4>", "[B,q4]", "[B]")


def test_tableau_requires_halt():
    with pytest.raises(MachineError):
        build_tableau(simulate(bouncing_machine(), "a", 50))


def test_tableau_refuses_runs_that_break_convention_3():
    m = demo_machine()
    left = dict(m.rules)
    left[("q1", "B")] = ("q2", "B", "L")  # the machine of test_assumption3_left_move_failure
    reenter = dict(m.rules)
    reenter[("q2", "B")] = ("q0", "B", "R")
    reenter[("q0", "a")] = ("q4", "a", "R")
    for rules, note in ((left, "moves left of cell -1 at step 2"),
                        (reenter, "re-enters the start state at step 3")):
        bad = TuringMachine(m.states, m.tape_symbols, m.blank, m.start, m.halt, rules)
        trace = simulate(bad, "a", 50)
        assert trace.halted
        assert validate_assumptions(bad, "a", 50).notes[2] == note
        with pytest.raises(AssumptionError, match=f"^run {note}$"):
            build_tableau(trace)


def test_tableau_verifies_and_is_tall():
    for machine, w in (
        (demo_machine(), "a"),
        (overwriting_machine(), "ab"),
        (zigzag_machine(), "aa"),
    ):
        trace = simulate(machine, w, 500)
        assert trace.halted
        t = build_tableau(trace)
        assert t.m >= t.n  # configurations >= scanned cells
        mk = marker_alphabet(machine)
        p = uniform_puzzle(row_expression(machine, w, mk), column_expression(machine, mk))
        assert verify(p, t)
        # step consistency: consecutive configs related by one rule
        for a, b in zip(trace.configs, trace.configs[1:]):
            read = a.window[a.head - trace.window_start]
            q2, written, d = machine.rules[(a.state, read)]
            assert b.state == q2
            assert b.head == a.head + (1 if d == "R" else -1)
            assert b.window[a.head - trace.window_start] == written


def test_machine_file_roundtrip():
    m = demo_machine()
    again = parse_machine(dump_machine(m))
    assert again.rules == m.rules
    assert again.blank == m.blank
    assert set(again.states) == set(m.states)


def test_machine_validation(tmp_path, capsys):
    with pytest.raises(MachineError):
        TuringMachine(("q0",), ("B",), "B", "q0", "q0", {})
    with pytest.raises(MachineError):
        TuringMachine(("q0", "qh"), ("B",), "B", "q0", "qh", {})  # missing rule
    # a blank, start or halt line takes exactly one value; the error names the line
    text = dump_machine(demo_machine())
    assert text.startswith("blank = B\n")
    for bad in ("blank = B C", "blank"):
        path = tmp_path / "bad.tm"
        path.write_text(text.replace("blank = B", bad, 1))
        with pytest.raises(MachineError, match="^line 1: blank needs exactly one value"):
            parse_machine(path.read_text())
        capsys.readouterr()
        assert run(["tm", "simulate", str(path), "-w", "a"]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: blank needs")


def test_input_may_not_contain_blank():
    # simulate accepts arbitrary tape content, blanks included
    assert not simulate(demo_machine(), "B", 10).halted
    # the assumption validator takes a proper input string
    with pytest.raises(MachineError):
        validate_assumptions(demo_machine(), "aBa", 10)
