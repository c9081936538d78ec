"""Exact computational experiments on subgroup chains.

The library computes homology gradients along finite-index subgroup chains,
verifies q-normality certificates and their coset-graph constructions,
analyzes graph groups for inner amenability and chain-commuting structure,
measures inner Følner defects, tabulates fixed-point ratios, and audits
quantitative rebuildings of chain complexes.  Everything is exact integer or
rational arithmetic except operator norms, which are floating-point
power-iteration estimates.
"""

from .contexts import (
    battery_context,
    free_abelian_context,
    free_context,
    infinite_order_certificate,
    raag_context,
)
from .coset import build_abelian_chain, farber_prefix_check, parse_chain_spec, todd_coxeter
from .errors import (
    BudgetExceededError,
    InputError,
    UndecidableContextError,
    VerificationFailure,
)
from .homology import chain_homology, estimate_trend, gradient_series, homology_summary
from .qnormal import (
    QNormalChainCertificate,
    QNormalStatus,
    QNormalWitness,
    QNormalWitnessSet,
    blow_up,
    build_coset_graph,
    verify_chain,
    verify_qnormal,
)
from .raag import (
    artin_chain_commuting,
    chain_commuting_report,
    chain_commuting_sequence,
    emit_qnormal_chain,
    exact_chain_contexts,
    is_inner_amenable_raag,
)
from .rebuilding import minimal_kappa, quality_check, validate_rebuilding
from .words import Presentation, RaagGraph, free_reduce, raag_graph, word

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "InputError",
    "Presentation",
    "QNormalChainCertificate",
    "QNormalStatus",
    "QNormalWitness",
    "QNormalWitnessSet",
    "RaagGraph",
    "UndecidableContextError",
    "VerificationFailure",
    "artin_chain_commuting",
    "battery_context",
    "blow_up",
    "build_abelian_chain",
    "build_coset_graph",
    "chain_commuting_report",
    "chain_commuting_sequence",
    "chain_homology",
    "emit_qnormal_chain",
    "estimate_trend",
    "exact_chain_contexts",
    "farber_prefix_check",
    "free_abelian_context",
    "free_context",
    "free_reduce",
    "gradient_series",
    "homology_summary",
    "infinite_order_certificate",
    "is_inner_amenable_raag",
    "minimal_kappa",
    "parse_chain_spec",
    "quality_check",
    "raag_context",
    "raag_graph",
    "todd_coxeter",
    "verify_chain",
    "verify_qnormal",
    "word",
]
