"""Quantum correlations in photon-added coherent-state superpositions.

Closed-form entanglement of formation, quantum discord and monogamy deficit
for quasi-Bell and GHZ-type encoded states, with an independent brute-force
Fock-space oracle for verification and a CSV-producing CLI.
"""

from .states import DEGENERATE_ALPHA2, LimitRegimeError, ModelParams, ghz_rho12, ghz_rho23
from .correlations import (
    QUANTITIES,
    CorrelationReport,
    closed_forms,
    deficit,
    discord_12,
    discord_12_peak,
    discord_1_23,
    discord_23,
    eof_from_concurrence,
    report,
    violation_threshold,
    w_bell_concurrence_limit,
    w_limit_report,
)
from .special import MAX_PHOTON_ORDER, binary_entropy, kappa, kappa_small_alpha, laguerre, pacs_overlap

__version__ = "0.1.0"

__all__ = [
    "DEGENERATE_ALPHA2",
    "MAX_PHOTON_ORDER",
    "QUANTITIES",
    "CorrelationReport",
    "LimitRegimeError",
    "ModelParams",
    "binary_entropy",
    "closed_forms",
    "deficit",
    "discord_12",
    "discord_12_peak",
    "discord_1_23",
    "discord_23",
    "eof_from_concurrence",
    "ghz_rho12",
    "ghz_rho23",
    "kappa",
    "kappa_small_alpha",
    "laguerre",
    "pacs_overlap",
    "report",
    "violation_threshold",
    "w_bell_concurrence_limit",
    "w_limit_report",
]
