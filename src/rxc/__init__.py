"""A laboratory for regular-expression crosswords.

Core pieces: a regex layer with native intersection, a position-automaton
engine, an exact grid solver with enumeration/counting/uniqueness, a
width-unbounded existence decider, Turing machine simulation with run
tableaux, and the constructive reductions connecting machine halting,
CNF satisfiability and graph covering to crossword existence.
"""

from .rex import (
    Alphabet,
    Regex,
    RegexSyntaxError,
    Symbol,
    UnknownSymbolError,
    apply_homomorphism,
    concat,
    epsilon,
    format_regex,
    inter,
    is_positive,
    lit,
    opt,
    parse,
    plus,
    regex_matches,
    star,
    union_,
    word,
)
from .nfa import (
    Nfa,
    compile_regex,
    enumerate_language,
    is_empty,
    matches,
    step,
)
from .grids import Grid, dump_grid, parse_grid, read_grid, write_grid
from .puzzle import Puzzle, dump_puzzle, parse_puzzle, read_puzzle, uniform_puzzle, write_puzzle
from .solver import (
    DimensionError,
    WidthResult,
    count_grids,
    decide_unbounded_width,
    enumerate_grids,
    is_plural,
    is_unique,
    solve,
    verify,
)
from .oracle import (
    CnfFormula,
    GraphInstance,
    brute_force_crosswords,
    brute_force_sat_count,
    brute_force_vertex_cover,
    dump_dimacs,
    parse_dimacs,
    parse_graph,
    read_dimacs,
    read_graph,
)
from .turing import (
    AssumptionReport,
    MachineError,
    RunTrace,
    TuringMachine,
    build_tableau,
    dump_machine,
    parse_machine,
    read_machine,
    run_path,
    simulate,
    validate_assumptions,
    write_machine,
)
from . import machines, reductions

__version__ = "0.1.0"
