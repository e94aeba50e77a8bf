"""Small-state-space ground truth via a truncated generator and uniformization.

Independent of the PGF/Fourier pipeline: builds the instantaneous-rate
generator on a truncated box and computes the transient distribution with
Poisson-weighted powers of the uniformized kernel.  Transitions leaving the
box are dropped, so rows are substochastic and the reported probabilities
are lower bounds; truncation_mass bounds the leak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonConvergent
from .models import ModelSpec

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "TruncatedGenerator",
    "OracleResult",
    "build_generator",
    "transition_probs_uniformized",
    "oracle_transition_matrix",
]

_MAX_POISSON_TERMS = 100_000


@dataclass(frozen=True)
class TruncatedGenerator:
    """Sparse generator Q over states [0, n_trunc)^2, row-indexed x1*n_trunc + x2."""

    n_trunc: int
    q: sparse.csr_matrix


@dataclass(frozen=True)
class OracleResult:
    probs: np.ndarray  # n_trunc x n_trunc, entry (l, m) = p_{init,(l,m)}(t)
    truncation_mass: float


def _events(model: ModelSpec):
    """Per-state event list: (dx1, dx2, per-particle rate, which population scales it)."""
    r = model.rates
    if model.kind == "hsc":
        return [
            (+1, 0, r.rho, 1),   # self-renewal
            (-1, +1, r.nu, 1),   # differentiation
            (0, -1, r.mu, 2),    # progenitor death
        ]
    return [
        (0, +1, r.gamma, 1),     # birth off an original location
        (-1, +1, r.sigma, 1),    # shift
        (-1, 0, r.delta, 1),     # death of an original
        (0, +1, r.gamma, 2),     # birth off a new location
        (0, -1, r.delta, 2),     # death of a new location
    ]


def build_generator(model: ModelSpec, n_trunc: int) -> TruncatedGenerator:
    """Generator with overall rates multiplicative in the particle counts."""
    # Imported here: scipy is slow to load and only the oracle needs it.
    from scipy import sparse

    events = _events(model)
    n = n_trunc
    rows, cols, vals = [], [], []
    for x1 in range(n):
        for x2 in range(n):
            i = x1 * n + x2
            out_rate = 0.0
            for dx1, dx2, rate, pop in events:
                count = x1 if pop == 1 else x2
                if count == 0:
                    continue
                total = count * rate
                out_rate += total
                y1, y2 = x1 + dx1, x2 + dx2
                if 0 <= y1 < n and 0 <= y2 < n:
                    rows.append(i)
                    cols.append(y1 * n + y2)
                    vals.append(total)
                # else: mass leaks out of the box; row stays substochastic
            if out_rate > 0:
                rows.append(i)
                cols.append(i)
                vals.append(-out_rate)
    q = sparse.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))
    return TruncatedGenerator(n_trunc=n, q=q)


def transition_probs_uniformized(gen: TruncatedGenerator, init: tuple[int, int],
                                 t: float, tol: float = 1e-12) -> OracleResult:
    """Row of e^{Qt} for the initial state via uniformization.

    Sums Poisson(Lambda t)-weighted powers of K = I + Q/Lambda until the
    Poisson tail drops below tol.
    """
    # Imported here: scipy is slow to load and only the oracle needs it.
    from scipy import sparse
    from scipy.stats import poisson

    n = gen.n_trunc
    j, k = init
    if not (0 <= j < n and 0 <= k < n):
        raise ValueError("init outside truncated state space")
    q = gen.q
    lam_max = float(np.max(-q.diagonal()))
    if lam_max == 0 or t == 0:
        probs = np.zeros((n, n))
        probs[j, k] = 1.0
        return OracleResult(probs=probs, truncation_mass=0.0)
    mu = lam_max * t
    k_max = int(poisson.isf(tol, mu)) + 1
    if k_max > _MAX_POISSON_TERMS:
        raise NonConvergent(f"uniformization needs {k_max} Poisson terms (cap {_MAX_POISSON_TERMS})")
    weights = poisson.pmf(np.arange(k_max + 1), mu)
    kernel = sparse.identity(n * n, format="csr") + q / lam_max
    v = np.zeros(n * n)
    v[j * n + k] = 1.0
    acc = weights[0] * v
    for step in range(1, k_max + 1):
        v = v @ kernel
        acc += weights[step] * v
    probs = acc.reshape(n, n)
    return OracleResult(probs=probs, truncation_mass=float(1.0 - probs.sum()))


def oracle_transition_matrix(model: ModelSpec, n_trunc: int,
                             tol: float = 1e-12) -> OracleResult:
    """Convenience wrapper: generator plus uniformization for the model's init state."""
    gen = build_generator(model, n_trunc)
    return transition_probs_uniformized(gen, model.init, model.t, tol)
