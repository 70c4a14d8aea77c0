"""Small hand-built machines used by the demos and the test suite.

All of them satisfy the run conventions listed in :mod:`rxc.turing`
(checked by tests).  Transition tables are totalised by
:func:`rxc.turing.total_machine` with self-loops so that every (state,
symbol) pair is defined; the filler transitions are unreachable from
the standard initial configuration.
"""

from __future__ import annotations

from .turing import TuringMachine, total_machine


def demo_machine() -> TuringMachine:
    """Marks the cell left of the input, then walks right over 'a' and halts.

    On input "a": halts after 5 steps, visiting cells -1..2.
    """
    return total_machine(
        ["q0", "q1", "q2", "q3", "q4", "qh"],
        ["B", "a", "#"],
        "B", "q0", "qh",
        {
            ("q0", "B"): ("q1", "B", "L"),
            ("q1", "B"): ("q2", "#", "R"),
            ("q2", "B"): ("q3", "B", "R"),
            ("q3", "a"): ("q4", "a", "R"),
            ("q4", "B"): ("qh", "B", "L"),
        },
    )


def overwriting_machine() -> TuringMachine:
    """Rewrites every input symbol to 'b', then halts on the way back."""
    return total_machine(
        ["q0", "q1", "q2", "q3", "q4", "qh"],
        ["B", "a", "b"],
        "B", "q0", "qh",
        {
            ("q0", "B"): ("q1", "B", "L"),
            ("q1", "B"): ("q2", "B", "R"),
            ("q2", "B"): ("q3", "B", "R"),
            ("q3", "a"): ("q3", "b", "R"),
            ("q3", "b"): ("q3", "b", "R"),
            ("q3", "B"): ("q4", "B", "L"),
            ("q4", "b"): ("qh", "b", "L"),
        },
    )


def zigzag_machine() -> TuringMachine:
    """Walks to the blank right of the input, returns to the left end,
    then steps right once more and halts.  Exercises left-moving rules."""
    return total_machine(
        ["q0", "q1", "q2", "q3", "q4", "q5", "qh"],
        ["B", "a"],
        "B", "q0", "qh",
        {
            ("q0", "B"): ("q1", "B", "L"),
            ("q1", "B"): ("q2", "B", "R"),
            ("q2", "B"): ("q3", "B", "R"),
            ("q3", "a"): ("q3", "a", "R"),
            ("q3", "B"): ("q4", "B", "L"),
            ("q4", "a"): ("q4", "a", "L"),
            ("q4", "B"): ("q5", "B", "R"),
            ("q5", "a"): ("qh", "a", "R"),
        },
    )


def bouncing_machine() -> TuringMachine:
    """Never halts: after scanning the input it bounces between the last
    input cell and the blank to its right, forever.  The head never moves
    left of the cell reached after the first step and the start state is
    never re-entered, so the run conventions hold on every input."""
    return total_machine(
        ["q0", "q1", "q2", "q3", "q4", "q5", "qh"],
        ["B", "a"],
        "B", "q0", "qh",
        {
            ("q0", "B"): ("q1", "B", "L"),
            ("q1", "B"): ("q2", "B", "R"),
            ("q2", "B"): ("q3", "B", "R"),
            ("q3", "a"): ("q3", "a", "R"),
            ("q3", "B"): ("q4", "B", "L"),
            ("q4", "a"): ("q5", "a", "R"),
            ("q5", "B"): ("q4", "B", "L"),
        },
    )
