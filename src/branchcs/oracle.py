"""Small-state-space ground truth via a truncated generator and uniformization.

Independent of the PGF/Fourier pipeline.  On the box [0, n_trunc)^2 the
generator Q is a stencil, one shift per event, and the transient distribution
is a Poisson(Lambda t)-weighted sum of powers of K = I + Q/Lambda (Jensen 1953,
Grassmann 1977).  Moves leaving the box are dropped, so the probabilities are
lower bounds; truncation_mass bounds the leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent
from .models import ModelSpec

__all__ = ["TruncatedGenerator", "OracleResult", "build_generator",
           "transition_probs_uniformized", "oracle_transition_matrix"]

_MAX_POISSON_TERMS = 100_000


@dataclass(frozen=True)
class TruncatedGenerator:
    """Generator Q over states [0, n_trunc)^2 as a stencil.

    events are (dx1, dx2, rate), rate[x1, x2] being the event's rate out of (x1, x2);
    out_rate = -diag Q is each state's total rate out, moves that leave the box included.
    """

    n_trunc: int
    events: tuple[tuple[int, int, np.ndarray], ...]
    out_rate: np.ndarray


@dataclass(frozen=True)
class OracleResult:
    probs: np.ndarray  # n_trunc x n_trunc, entry (l, m) = p_{init,(l,m)}(t)
    truncation_mass: float


def build_generator(model: ModelSpec, n_trunc: int) -> TruncatedGenerator:
    """The model's generator on [0, n_trunc)^2, rates multiplicative in the particle counts."""
    if n_trunc < 1:
        raise ValueError(f"n_trunc must be >= 1, got {n_trunc}")
    x1, x2 = np.indices((n_trunc, n_trunc))
    r = model.rates
    if model.kind == "hsc":
        events = ((+1, 0, r.rho * x1),      # self-renewal
                  (-1, +1, r.nu * x1),      # differentiation
                  (0, -1, r.mu * x2))       # progenitor death
    else:
        events = ((0, +1, r.gamma * x1),    # birth off an original location
                  (-1, +1, r.sigma * x1),   # shift
                  (-1, 0, r.delta * x1),    # death of an original
                  (0, +1, r.gamma * x2),    # birth off a new location
                  (0, -1, r.delta * x2))    # death of a new location
    return TruncatedGenerator(n_trunc, events, sum(rate for _, _, rate in events))


def _kernel(gen: TruncatedGenerator, lam: float):
    """The step v -> v K of K = I + Q/lam on n_trunc x n_trunc arrays."""
    n = gen.n_trunc
    stay = 1.0 - gen.out_rate / lam
    moves = [(slice(1 + dx1, n + 1 + dx1), slice(1 + dx2, n + 1 + dx2), rate / lam)
             for dx1, dx2, rate in gen.events]

    def step(v: np.ndarray) -> np.ndarray:
        ghost = np.zeros((n + 2, n + 2))  # its border takes the moves that leave the box
        for rows, cols, p in moves:
            ghost[rows, cols] += v * p
        return v * stay + ghost[1:-1, 1:-1]

    return step


def _poisson_weights(mu: float, tol: float) -> np.ndarray:
    """Poisson(mu) pmf at 0..k_max, k_max being one past the first k with P(X > k) <= tol."""
    if mu >= _MAX_POISSON_TERMS:  # the median is above mu - ln 2, so k_max > cap for tol < 1/2
        raise NonConvergent(f"uniformization needs more than {_MAX_POISSON_TERMS} Poisson "
                            f"terms (Lambda t = {mu:.3g})")
    # P(X >= mu + x) <= exp(-x^2 / (2 mu + 2x/3)) (Bennett): the mass past hi is below tol e^-40
    log_eps = 40.0 - math.log(tol)
    hi = int(mu + log_eps + math.sqrt(2.0 * log_eps * mu)) + 1
    lgamma = np.array([math.lgamma(k + 1.0) for k in range(hi + 1)])
    pmf = np.exp(np.arange(hi + 1) * math.log(mu) - lgamma - mu)
    tail = np.cumsum(pmf[::-1])[::-1]  # tail[k] = P(X >= k)
    k_max = int(np.argmax(tail[1:] <= tol)) + 1
    if k_max > _MAX_POISSON_TERMS:
        raise NonConvergent(f"uniformization needs {k_max} Poisson terms "
                            f"(cap {_MAX_POISSON_TERMS})")
    return pmf[:k_max + 1]


def transition_probs_uniformized(gen: TruncatedGenerator, init: tuple[int, int],
                                 t: float, tol: float = 1e-12) -> OracleResult:
    """Row of e^{Qt} for the initial state via uniformization.

    Sums Poisson(Lambda t)-weighted powers of K = I + Q/Lambda, Lambda being the
    largest out-rate, until the Poisson tail drops below tol, 0 < tol < 1.
    """
    if not 0 < tol < 1:  # False for NaN
        raise ValueError(f"tol must be in (0, 1), got {tol!r}")
    n = gen.n_trunc
    j, k = init
    if not (0 <= j < n and 0 <= k < n):
        raise ValueError("init outside truncated state space")
    v = np.zeros((n, n))
    v[j, k] = 1.0
    lam = float(gen.out_rate.max())
    if lam == 0 or t == 0:
        return OracleResult(probs=v, truncation_mass=0.0)
    weights = _poisson_weights(lam * t, tol)
    step = _kernel(gen, lam)
    acc = weights[0] * v
    for w in weights[1:]:
        v = step(v)
        acc += w * v
    return OracleResult(probs=acc, truncation_mass=float(1.0 - acc.sum()))


def oracle_transition_matrix(model: ModelSpec, n_trunc: int,
                             tol: float = 1e-12) -> OracleResult:
    """Convenience wrapper: generator plus uniformization for the model's init state."""
    gen = build_generator(model, n_trunc)
    return transition_probs_uniformized(gen, model.init, model.t, tol)
