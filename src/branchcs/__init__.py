"""Finite-time transition probabilities of two-type branching processes.

Exact computation via PGF grid evaluation and 2D Fourier inversion, or
compressed-sensing recovery from a small random subset of PGF evaluations
using a matrix-free ADMM solver (with a FISTA baseline and a uniformization
oracle for verification).
"""

from .admm import AdmmConfig, SolveReport, recover, soft_threshold
from .errors import (
    BranchCSError,
    IntegrationFailure,
    MTooLarge,
    NonConvergent,
    NonFinite,
    NonSquareGrid,
    ShapeMismatch,
)
from .grid import (
    MeasurementSet,
    default_m,
    full_measurements,
    invert_full,
    rel_l2_error,
    sample_indices,
    sampled_measurements,
)
from .models import ModelSpec, RatesBDS, RatesHSC, model_from_config, pgf
from .oracle import oracle_transition_matrix
from .pgd import PgdConfig, pgd_recover

__version__ = "0.1.0"
