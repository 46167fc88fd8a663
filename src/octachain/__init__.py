"""Octagonal chain graphs and their normalized-Laplacian invariants.

The package constructs the twisted closed chain of octagons and its open
counterpart, computes exact spectral invariants (spanning trees, Kemeny's
constant, the degree-weighted resistance index, reciprocal eigenvalue sums)
from closed forms, and verifies every one of them against independent
brute-force oracles.
"""

from .closed_forms import (
    SpectralSummary,
    dk_index,
    kemeny,
    spanning_trees,
    spectral_summary,
    sum_recip_alpha,
    xi,
)
from .graph_gen import (
    LINEAR,
    MOEBIUS,
    ChainGraph,
    build_linear_octagonal,
    build_moebius_octagonal,
    fold_linear_ends,
)
from .verification import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ChainGraph",
    "LINEAR",
    "MOEBIUS",
    "SpectralSummary",
    "VerificationReport",
    "build_linear_octagonal",
    "build_moebius_octagonal",
    "dk_index",
    "fold_linear_ends",
    "kemeny",
    "run_verification",
    "spanning_trees",
    "spectral_summary",
    "sum_recip_alpha",
    "xi",
    "__version__",
]
