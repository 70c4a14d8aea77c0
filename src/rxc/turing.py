"""Deterministic single-tape Turing machines and their run tableaux.

The machine model: a unique halting state distinct from the start
state, a two-way infinite tape, and a head that moves left or right on
every step.  Simulation places the initial tape content on cells
1..len and starts with the head on the blank cell 0, immediately to
the left of it.

Four run conventions matter for the grid constructions built on top:

1. the head initially scans the blank cell just left of the input;
2. the first transition is (start, blank) -> (q1, blank, L) for some
   q1 other than the start state;
3. the start state is never re-entered, and the head never moves left
   of the cell reached after the first step;
4. the blank cell just right of the input is scanned at some point.

The simulator enforces 1, ``initial_state`` checks 2 and
``run_violation`` checks 3; ``validate_assumptions``, ``build_tableau``,
the tableau expressions and ``sat_reduce`` all go through these two.
Convention 3 reads only states and heads, so ``validate_assumptions``
and ``sat_reduce`` run a machine through ``run_path``, in time and
memory linear in the steps; ``simulate`` also keeps every
configuration's tape window, which the tableau needs.
3 and 4 are only semidecidable, so past the step budget the report
calls them unknown rather than guessing.

Any machine can be adapted by hand to meet the conventions without
changing what it halts on.  The standard recipe: add fresh states q0'
(new start) and q1' with (q0', blank) -> (q1', blank, L); from q1',
write a reserved end-guard symbol, step right, and hand control to the
original start state; give every state a rule that bounces right off
the guard symbol, so the head can never pass it; and if the original
machine might halt without reaching the blank after the input, insert
a one-off sweep to that blank and back before entering the original
logic.  The sample machines in :mod:`rxc.machines` are small enough to
satisfy the conventions directly instead.

Machine files are line oriented::

    blank = B
    start = q0
    halt = qh
    tape = B a #
    delta q0 B = q1 B L

with ``#`` comment lines (full-line only) and states inferred from the
transitions plus the start/halt lines.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .records import record

LEFT = "L"
RIGHT = "R"


class MachineError(ValueError):
    pass


class AssumptionError(MachineError):
    """A machine or run breaks a run convention."""


@record
class TuringMachine:
    states: tuple[str, ...]
    tape_symbols: tuple[str, ...]
    blank: str
    start: str
    halt: str
    rules: Mapping[tuple[str, str], tuple[str, str, str]]

    def __post_init__(self):
        states = set(self.states)
        syms = set(self.tape_symbols)
        if len(states) != len(self.states) or len(syms) != len(self.tape_symbols):
            raise MachineError("duplicate state or tape symbol names")
        if self.blank not in syms:
            raise MachineError("blank symbol missing from tape alphabet")
        if self.start not in states or self.halt not in states:
            raise MachineError("start or halt state missing from state list")
        if self.start == self.halt:
            raise MachineError("halting state must differ from the start state")
        for q in self.states:
            if q == self.halt:
                continue
            for a in self.tape_symbols:
                if (q, a) not in self.rules:
                    raise MachineError(f"transition missing for ({q}, {a})")
        for (q, a), (q2, b, d) in self.rules.items():
            if q == self.halt:
                raise MachineError("halting state has outgoing transitions")
            if q not in states or q2 not in states:
                raise MachineError(f"rule ({q},{a}) uses an unknown state")
            if a not in syms or b not in syms:
                raise MachineError(f"rule ({q},{a}) uses an unknown tape symbol")
            if d not in (LEFT, RIGHT):
                raise MachineError(f"rule ({q},{a}) must move L or R")

    @property
    def nonhalting_states(self) -> tuple[str, ...]:
        return tuple(q for q in self.states if q != self.halt)


def total_machine(states, tape_symbols, blank: str, start: str, halt: str,
                  rules: Mapping[tuple[str, str], tuple[str, str, str]]) -> TuringMachine:
    """The machine whose missing non-halting rules are self-loops that
    keep the symbol and move right."""
    complete = {(q, a): (q, a, RIGHT) for q in states if q != halt for a in tape_symbols}
    complete.update(rules)
    return TuringMachine(tuple(states), tuple(tape_symbols), blank, start, halt, complete)


@record
class Config:
    state: str
    head: int
    window: tuple[str, ...]  # tape content over [window_start, window_end]


@record
class RunTrace:
    machine: TuringMachine
    configs: tuple[Config, ...]
    window_start: int  # absolute index of the leftmost scanned cell
    halted: bool

    @property
    def steps(self) -> int:
        return len(self.configs) - 1

    @property
    def scanned_cells(self) -> int:
        return len(self.configs[0].window)

    def symbol_at(self, t: int, cell: int) -> str:
        return self.configs[t].window[cell - self.window_start]


def _configs(machine: TuringMachine, initial_tape: Sequence[str] | str,
             max_steps: int) -> Iterator[tuple[str, int, dict[int, str]]]:
    """The run's configurations up to the halt or ``max_steps`` steps, as
    (state, head, tape); the tape content starts on cells 1..len.  The
    tape dict is reused, so read it before resuming."""
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    for sym in initial_tape:
        if sym not in machine.tape_symbols:
            raise MachineError(f"tape symbol {sym!r} not in the machine's alphabet")
    tape: dict[int, str] = {
        i + 1: sym for i, sym in enumerate(initial_tape) if sym != machine.blank
    }
    head = 0
    state = machine.start
    yield state, head, tape
    for _ in range(max_steps):
        if state == machine.halt:
            return
        read = tape.get(head, machine.blank)
        state, write, direction = machine.rules[(state, read)]
        if write == machine.blank:
            tape.pop(head, None)
        else:
            tape[head] = write
        head += 1 if direction == RIGHT else -1
        yield state, head, tape


def run_path(machine: TuringMachine, initial_tape: Sequence[str] | str,
             max_steps: int) -> list[tuple[str, int]]:
    """The (state, head) of each configuration of the run, up to the halt
    or ``max_steps`` steps: all the run conventions read, in time and
    memory linear in the steps.  The run halted iff the last state is
    the halting state."""
    return [(state, head) for state, head, _ in _configs(machine, initial_tape, max_steps)]


def simulate(machine: TuringMachine, initial_tape: Sequence[str] | str,
             max_steps: int) -> RunTrace:
    """Run the machine; the tape content occupies cells 1..len.

    Returns the trace up to the halt (halted=True) or up to max_steps
    (halted=False).  The per-config windows cover exactly the cells the
    head visited during the traced run, so the trace grows with steps
    times cells; ``run_path`` keeps only states and heads.
    """
    history = [(q, h, dict(t)) for q, h, t in _configs(machine, initial_tape, max_steps)]
    halted = history[-1][0] == machine.halt
    lo = min(h for _, h, _ in history)
    hi = max(h for _, h, _ in history)
    configs = tuple(
        Config(q, h, tuple(t.get(c, machine.blank) for c in range(lo, hi + 1)))
        for q, h, t in history
    )
    return RunTrace(machine, configs, lo, halted)


def initial_state(machine: TuringMachine) -> str:
    """Convention 2: the state q1 of the first transition
    (start, blank) -> (q1, blank, L), q1 other than the start state."""
    q1, write, direction = machine.rules[(machine.start, machine.blank)]
    if write != machine.blank or direction != LEFT or q1 == machine.start:
        raise AssumptionError(f"initial transition is ({q1},{write},{direction})")
    return q1


def run_violation(machine: TuringMachine, path: Sequence[tuple[str, int]]) -> str | None:
    """Convention 3 along a run's (state, head) path (``run_path``): the
    first return to the start state or move left of the floor, the cell
    reached after the first step, as a note; None if there is neither."""
    if len(path) < 2:
        return None
    floor = path[1][1]
    for t, (state, head) in enumerate(path):
        if t and state == machine.start:
            return f"re-enters the start state at step {t}"
        if head < floor:
            return f"moves left of cell {floor} at step {t}"
    return None


@record
class AssumptionReport:
    """Outcome per run convention: 'pass', 'fail' or 'unknown'."""

    statuses: tuple[str, str, str, str]
    notes: tuple[str, str, str, str]
    epsilon_input: bool

    @property
    def all_pass(self) -> bool:
        return all(s == "pass" for s in self.statuses)


def validate_assumptions(machine: TuringMachine, input_string: Sequence[str] | str,
                         max_steps: int) -> AssumptionReport:
    """Check the four run conventions against a bounded run, read off
    its (state, head) path alone."""
    for sym in input_string:
        if sym == machine.blank:
            raise MachineError("input string may not contain the blank symbol")
    statuses = ["pass", "pass", "pass", "pass"]
    notes = ["enforced by the simulator: the head starts on cell 0, left of the input",
             "", "", ""]
    try:
        notes[1] = f"initial transition moves left into {initial_state(machine)}"
    except AssumptionError as exc:
        statuses[1] = "fail"
        notes[1] = str(exc)

    path = run_path(machine, input_string, max_steps)
    halted = path[-1][0] == machine.halt
    violation = run_violation(machine, path)
    if violation:
        statuses[2] = "fail"
        notes[2] = violation
    elif not halted:
        statuses[2] = "unknown"
        notes[2] = f"no violation within {max_steps} steps; machine still running"
    else:
        notes[2] = "holds along the entire halting run"

    target = len(input_string) + 1
    epsilon_input = len(input_string) == 0
    scanned = any(head == target for _, head in path)
    if scanned:
        notes[3] = f"scans cell {target}"
    elif halted:
        statuses[3] = "fail"
        notes[3] = f"halts without scanning cell {target}"
    else:
        statuses[3] = "unknown"
        notes[3] = f"cell {target} not scanned within {max_steps} steps"
    if epsilon_input:
        notes[3] += " (empty input: the cell checked is cell 1)"
    return AssumptionReport(tuple(statuses), tuple(notes), epsilon_input)


def build_tableau(trace: RunTrace):
    """The marker grid of a halting run: one row per configuration, one
    column per scanned cell."""
    from .grids import Grid
    from .markers import marker_alphabet

    if not trace.halted:
        raise MachineError("cannot build a tableau from a non-halting trace")
    violation = run_violation(trace.machine, [(cfg.state, cfg.head) for cfg in trace.configs])
    if violation:
        raise AssumptionError(f"run {violation}")
    configs = trace.configs
    markers = marker_alphabet(trace.machine)
    lo = trace.window_start
    hi = lo + trace.scanned_cells - 1
    rows = []
    for t, (cfg, nxt) in enumerate(zip(configs, configs[1:] + (None,))):
        row = []
        for cell in range(lo, hi + 1):
            sym = trace.symbol_at(t, cell)
            if cfg.head == cell:
                row.append(markers.scanned(sym, cfg.state).id)
            elif nxt is not None and nxt.head == cell:
                row.append(markers.transmission(sym, nxt.state).id)
            else:
                row.append(markers.unscanned(sym).id)
        rows.append(tuple(row))
    return Grid(markers.alphabet, tuple(rows))


# --- machine files ------------------------------------------------------------

def parse_machine(text: str) -> TuringMachine:
    blank = start = halt = None
    tape: list[str] = []
    rules: dict[tuple[str, str], tuple[str, str, str]] = {}
    states: list[str] = []

    def note_state(q: str) -> None:
        if q not in states:
            states.append(q)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key_parts = key.split()
        value_parts = value.split()
        if key_parts in (["blank"], ["start"], ["halt"]) and len(value_parts) != 1:
            raise MachineError(f"line {lineno}: {key_parts[0]} needs exactly one value, not {line!r}")
        if key_parts == ["blank"]:
            (blank,) = value_parts
        elif key_parts == ["start"]:
            (start,) = value_parts
            note_state(start)
        elif key_parts == ["halt"]:
            (halt,) = value_parts
            note_state(halt)
        elif key_parts == ["tape"]:
            tape = value_parts
        elif key_parts and key_parts[0] == "delta":
            if len(key_parts) != 3 or len(value_parts) != 3:
                raise MachineError(f"line {lineno}: bad transition {line!r}")
            _, q, a = key_parts
            q2, b, d = value_parts
            note_state(q)
            note_state(q2)
            rules[(q, a)] = (q2, b, d)
        else:
            raise MachineError(f"line {lineno}: unrecognised line {line!r}")
    if blank is None or start is None or halt is None or not tape:
        raise MachineError("machine file needs blank, start, halt and tape lines")
    return TuringMachine(tuple(states), tuple(tape), blank, start, halt, rules)


def dump_machine(machine: TuringMachine) -> str:
    lines = [
        f"blank = {machine.blank}",
        f"start = {machine.start}",
        f"halt = {machine.halt}",
        "tape = " + " ".join(machine.tape_symbols),
    ]
    for (q, a), (q2, b, d) in sorted(machine.rules.items()):
        lines.append(f"delta {q} {a} = {q2} {b} {d}")
    return "\n".join(lines) + "\n"


def read_machine(path) -> TuringMachine:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_machine(fp.read())


def write_machine(machine: TuringMachine, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(dump_machine(machine))
