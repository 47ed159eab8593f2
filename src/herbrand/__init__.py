"""Herbrand equivalence analysis over control flow graphs.

Computes, at every program point, the partition of the finite expression
universe into classes of terms that denote the same value under every
interpretation of ``+`` as an uninterpreted operator, and cross-checks the
fixpoint result against an explicit meet-over-all-paths computation.
"""

from .congruence import (
    LatticeElem,
    Partition,
    TOP,
    Top,
    bottom,
    equivalent,
    get_class,
    is_top,
    meet,
    refines,
    term_value,
)
from .dataflow import (
    Confluence,
    Entry,
    FlowGraph,
    NodeKind,
    SolveResult,
    composite_step,
    solve,
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
from .report import emit_report
from .terms import (
    Atom,
    Sum,
    Term,
    TermUniverse,
    build_universe,
    format_term,
    occurs,
    parse_term,
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
    "LatticeElem", "Partition", "TOP", "Top", "bottom", "equivalent",
    "get_class", "is_top", "meet", "refines", "term_value",
    # dataflow
    "Confluence", "Entry", "FlowGraph", "NodeKind",
    "SolveResult", "composite_step", "solve", "validate_graph",
    # errors
    "AnalysisError", "DeclarationError", "GraphError", "IterationLimitError",
    "ParseError", "PathLimitError", "SelfReferenceError", "UniverseMismatchError",
    # mop
    "VerifyReport", "mop_table", "verify_mop_mfp",
    # program
    "parse_program",
    # report
    "emit_report",
    # terms
    "Atom", "Sum", "Term", "TermUniverse", "build_universe", "format_term",
    "occurs", "parse_term",
    # transfer
    "Assign", "NonDet", "Statement", "apply_statement", "assign_transfer",
    "nondet_transfer",
]
