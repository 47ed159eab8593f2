"""Herbrand equivalence analysis over control flow graphs.

Computes, at every program point, the partition of the finite expression
universe into classes of terms that denote the same value under every
interpretation of ``+`` as an uninterpreted operator, and cross-checks the
fixpoint result against an explicit meet-over-all-paths computation.
"""

from .congruence import (
    Base,
    ExtendedValue,
    LatticeElem,
    Pair,
    Partition,
    TOP,
    Top,
    Violation,
    bottom,
    congruence_violations,
    equivalent,
    get_class,
    is_congruence,
    is_top,
    meet,
    meet_all,
    partitions_equal,
    refines,
    term_value,
)
from .dataflow import (
    AnalysisState,
    Confluence,
    Entry,
    FlowGraph,
    Function,
    NodeKind,
    SolveResult,
    composite_step,
    solve,
    states_equal,
    validate_graph,
)
from .errors import (
    AnalysisError,
    DeclarationError,
    GraphError,
    IterationLimitError,
    ParseError,
    PathLimitError,
    SelfReferenceError,
    UniverseMismatchError,
)
from .mop import VerifyReport, mop_table, verify_mop_mfp
from .program import parse_program
from .report import emit_report, visible_classes
from .terms import (
    Atom,
    AtomRef,
    Sum,
    Term,
    TermUniverse,
    build_universe,
    depth,
    format_term,
    occurs,
    parse_term,
    substitute,
)
from .transfer import (
    Assign,
    NonDet,
    Statement,
    apply_statement,
    assign_transfer,
    nondet_transfer,
)

__all__ = [
    # congruence
    "Base", "ExtendedValue", "LatticeElem", "Pair", "Partition", "TOP", "Top",
    "Violation", "bottom", "congruence_violations", "equivalent", "get_class",
    "is_congruence", "is_top", "meet", "meet_all", "partitions_equal", "refines",
    "term_value",
    # dataflow
    "AnalysisState", "Confluence", "Entry", "FlowGraph", "Function", "NodeKind",
    "SolveResult", "composite_step", "solve", "states_equal", "validate_graph",
    # errors
    "AnalysisError", "DeclarationError", "GraphError", "IterationLimitError",
    "ParseError", "PathLimitError", "SelfReferenceError", "UniverseMismatchError",
    # mop
    "VerifyReport", "mop_table", "verify_mop_mfp",
    # program
    "parse_program",
    # report
    "emit_report", "visible_classes",
    # terms
    "Atom", "AtomRef", "Sum", "Term", "TermUniverse", "build_universe", "depth",
    "format_term", "occurs", "parse_term", "substitute",
    # transfer
    "Assign", "NonDet", "Statement", "apply_statement", "assign_transfer",
    "nondet_transfer",
]
