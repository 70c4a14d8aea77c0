"""Constructive reductions between machines, formulas, graphs and grids."""

from ..markers import MarkerAlphabet, marker_alphabet
from ..turing import AssumptionError
from .binary import (
    BINARY,
    BinaryCode,
    CodecError,
    EncodingError,
    binarize_expr,
    binarized_matches,
    binary_code,
    member_fn,
    psi_decode,
    psi_encode,
)
from .merge import (
    MergeDecodeError,
    MergedAlphabet,
    PluralityError,
    merge_rc,
    merged_alphabet,
    rho_decode,
    rho_encode,
)
from .npred import threesat_reduce, vc_reduce
from .satpipe import (
    EvaluatorError,
    SatReductionArtifacts,
    assignment_tableau,
    ee_from_sat,
    encode_formula,
    evaluator_clock,
    sat_evaluator,
    sat_reduce,
)
from .tableau import (
    column_expression,
    initial_row_expr,
    pad_right_with_blanks,
    row_expression,
    squarify_col_expr,
    transition_row_body,
)

__all__ = [
    "AssumptionError",
    "BINARY",
    "BinaryCode",
    "CodecError",
    "EncodingError",
    "EvaluatorError",
    "MarkerAlphabet",
    "MergeDecodeError",
    "MergedAlphabet",
    "PluralityError",
    "SatReductionArtifacts",
    "assignment_tableau",
    "binarize_expr",
    "binarized_matches",
    "binary_code",
    "column_expression",
    "ee_from_sat",
    "encode_formula",
    "evaluator_clock",
    "initial_row_expr",
    "marker_alphabet",
    "member_fn",
    "merge_rc",
    "merged_alphabet",
    "pad_right_with_blanks",
    "psi_decode",
    "psi_encode",
    "rho_decode",
    "rho_encode",
    "row_expression",
    "sat_evaluator",
    "sat_reduce",
    "squarify_col_expr",
    "threesat_reduce",
    "transition_row_body",
    "vc_reduce",
]
