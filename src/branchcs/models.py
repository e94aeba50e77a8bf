"""Probability generating functions for the two-type HSC and BDS branching models.

The type-2 PGF has a closed form for both models; the type-1 PGF is the
solution of a backward Kolmogorov ODE driven by the type-2 solution, which for
HSC is one linear 2 x 2 flow for a whole grid of arguments.  All
functions accept arbitrary complex arguments with |s| <= 1; the Fourier grid
supplies points on the unit circle.

The ODEs are integrated at rtol = atol = 1e-10 by `solve_ivp`, a port of
scipy's RK45 that gives the same bits and evaluation counts as
`scipy.integrate.solve_ivp` for the calls made here.  It is kept in-house
because importing scipy.integrate takes most of a `branchcs` process's
start-up time and about 50 MB of memory; branchcs imports no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import IntegrationFailure

__all__ = [
    "RatesHSC",
    "RatesBDS",
    "ModelSpec",
    "hsc_phi2",
    "bds_phi01",
    "pgf",
    "pgf_block",
    "model_from_config",
]


def _check_positive(**values):
    """Raise ValueError naming the first value that is not a real number (a bool
    is not one), or not finite and > 0: the check of every rate and of t."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < value < math.inf:  # False for NaN
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class RatesHSC:
    """Hematopoiesis rates: self-renewal, differentiation, progenitor death (per week)."""

    rho: float
    nu: float
    mu: float

    def __post_init__(self):
        _check_positive(rho=self.rho, nu=self.nu, mu=self.mu)


@dataclass(frozen=True)
class RatesBDS:
    """Birth-death-shift transposon rates (per year)."""

    gamma: float
    sigma: float
    delta: float

    def __post_init__(self):
        _check_positive(gamma=self.gamma, sigma=self.sigma, delta=self.delta)


@dataclass(frozen=True)
class ModelSpec:
    """A branching model, its elapsed time, and the initial state (j, k)."""

    kind: str  # "hsc" or "bds"
    rates: RatesHSC | RatesBDS
    t: float
    init: tuple[int, int]

    def __post_init__(self):
        if self.kind not in ("hsc", "bds"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "hsc" and not isinstance(self.rates, RatesHSC):
            raise ValueError("hsc model requires RatesHSC")
        if self.kind == "bds" and not isinstance(self.rates, RatesBDS):
            raise ValueError("bds model requires RatesBDS")
        _check_positive(t=self.t)
        if not (len(self.init) == 2 and all(isinstance(x, Integral) and not isinstance(x, bool)
                                            for x in self.init)):
            raise ValueError(f"init must be a pair of integers, got {self.init!r}")
        j, k = self.init
        if j < 0 or k < 0 or j + k < 1:
            raise ValueError("init must be non-negative with j + k >= 1")


def hsc_phi2(t: float, s2: complex, rates: RatesHSC) -> complex:
    """Type-2 (progenitor) PGF: pure death, closed form 1 + (s2 - 1) e^{-mu t}."""
    return 1.0 + (s2 - 1.0) * math.exp(-rates.mu * t)


def bds_phi01(t: float, s2: complex, rates: RatesBDS) -> complex:
    """PGF starting from one newly occupied location; closed form.

    phi = 1 + (s2 - 1) / (e^x - gamma (s2 - 1) t expm1(x) / x), x = (delta - gamma) t,
    with expm1(x) / x = 1 at x = 0: one formula through the critical rates
    gamma = delta, where it is 1 + (s2 - 1) / (1 - gamma t (s2 - 1)), and
    exactly 1 at s2 = 1.
    """
    g, x = rates.gamma, (rates.delta - rates.gamma) * t
    ratio = math.expm1(x) / x if x else 1.0
    return 1.0 + (s2 - 1.0) / (math.exp(x) - g * (s2 - 1.0) * t * ratio)


# Dormand-Prince 5(4): nodes, stage weights, 5th-order weights, error weights.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_RTOL = _ATOL = 1e-10  # every PGF solve's tolerances


@dataclass(frozen=True)
class OdeResult:
    y: np.ndarray  # n x 1: the state where the run ended, at t_bound if it succeeded
    nfev: int
    success: bool
    message: str


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> OdeResult:
    """Forward RK45 of y' = fun(t, y) over t_span, as scipy.integrate.solve_ivp does it.

    The same initial-step heuristic, step and error arithmetic (down to the
    order of its np.dot calls), step-size rules and minimum-step failure, so
    y and nfev carry scipy's bits.  rtol is taken as given: scipy raises one
    below 100 machine epsilons to that floor, which no call here reaches.
    """
    t, t_bound = map(float, t_span)
    if not t_bound > t:
        raise ValueError("solve_ivp integrates forward only")
    y = np.asarray(y0)
    dtype = complex if np.issubdtype(y.dtype, np.complexfloating) else float
    y = y.astype(dtype, copy=False)
    nfev = 0

    def f_at(tau, state):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(tau, state), dtype=dtype)

    f = f_at(t, y)
    if y.size:  # initial step (Hairer, Norsett & Wanner, Sec. II.4)
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_bound - t)
        d2 = _rms((f_at(t + h0, y + h0 * f) - f) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 5))
        h_abs = min(100 * h0, h1, t_bound - t)
    k = np.empty((len(_C) + 1, y.size), dtype=dtype)
    while y.size and t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(y[:, None], nfev, False,
                                 "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f
            for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
                k[s] = f_at(t + c * h, y + np.dot(k[:s].T, a[:s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _B)
            f_new = k[-1] = f_at(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(k.T, _E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0
                          else min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return OdeResult(y[:, None], nfev, True,
                     "The solver successfully reached the end of the integration interval.")


def _integrate(rhs, t: float, y0: np.ndarray) -> np.ndarray:
    """y(t) of y' = rhs(tau, y), y(0) = y0, by adaptive RK45."""
    sol = solve_ivp(rhs, (0.0, t), y0, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    return sol.y[:, -1]


def pgf_block(model: ModelSpec, s1, s2, out=None) -> np.ndarray:
    """PGF of the model at every (s1[i], s2[v]), as a len(s1) x len(s2) array,
    written into out (a complex array of that shape) if it is given.

    The type-2 PGF phi2 has a closed form.  The type-1 PGF phi1 solves a
    backward equation driven by it, from phi1(0) = s1:
      hsc: dphi/dtau = rho phi^2 - (rho + nu) phi + nu phi2(tau)
      bds: dphi/dtau = gamma phi phi2(tau) + sigma phi2(tau) + delta
                       - (gamma + sigma + delta) phi
    For fixed s2 the HSC equation is a Riccati equation, so phi1 is the linear
    fractional map (a s1 + b) / (c s1 + d) of W = [[a, b], [c, d]] solving
    W' = [[-h, nu phi2(tau)], [-rho, h]] W, W(0) = I, h = (rho + nu)/2 (Reid
    1972): one solve for every s2.  Without the shift by h, which leaves the
    ratio as it is, W would decay into atol at long t.  BDS takes one solve per
    s2, of every s1 as one vector-valued system.  Per particle independence
    phi_{jk} = phi1^j phi2^k, which for the init (1, 0) is phi1 itself.
    """
    s1 = np.atleast_1d(np.asarray(s1, dtype=complex))
    s2 = np.atleast_1d(np.asarray(s2, dtype=complex))
    (j, k), t, rates, m = model.init, model.t, model.rates, len(s2)
    p1 = np.empty((len(s1), m), dtype=complex) if out is None else out
    if not j:
        p1.fill(1)
    if model.kind == "hsc":
        p2 = hsc_phi2(t, s2, rates)
        if j:
            rho, nu, h = rates.rho, rates.nu, 0.5 * (rates.rho + rates.nu)

            def flow(tau, w):  # W' row by row: [a', b'] = f [c, d] - h [a, b], ...
                top, bottom = w.reshape(2, 2, m)
                f = nu * hsc_phi2(tau, s2, rates)
                return np.concatenate((f * bottom - h * top, h * bottom - rho * top), axis=None)

            w0 = np.repeat([1.0 + 0j, 0.0, 0.0, 1.0], m)  # W(0) = I for every s2
            a, b, c, d = _integrate(flow, t, w0).reshape(4, m)
            np.add(np.multiply.outer(s1, a, out=p1), b, out=p1)
            den = np.multiply.outer(s1, c)
            np.divide(p1, np.add(den, d, out=den), out=p1)
    else:
        p2 = bds_phi01(t, s2, rates)
        g, sg, d = rates.gamma, rates.sigma, rates.delta
        for col in range(m if j else 0):
            def rhs(tau, phi, v=s2[col]):
                p01 = bds_phi01(tau, v, rates)
                return g * phi * p01 + sg * p01 + d - (g + sg + d) * phi

            p1[:, col] = _integrate(rhs, t, s1)
    if (j, k) != (1, 0):
        np.multiply(p1 ** j, p2 ** k, out=p1)
    return p1


def pgf(model: ModelSpec, s1: complex, s2: complex) -> complex:
    """phi_{jk}(t, s1, s2) for the model's initial state."""
    return complex(pgf_block(model, s1, s2)[0, 0])


def model_from_config(cfg: dict) -> ModelSpec:
    """Build a ModelSpec from the JSON config schema.

    Expected shape: {"model": "hsc"|"bds", "rates": {...}, "t": float,
    "init": [j, k]}.  A missing or malformed entry raises ValueError naming it.
    """
    def get(mapping, key, where="config"):
        if not isinstance(mapping, dict) or key not in mapping:
            raise ValueError(f"{where} has no {key!r}")
        return mapping[key]

    kind = get(cfg, "model")
    if kind not in ("hsc", "bds"):
        raise ValueError(f"unknown model kind {kind!r}")
    rates_type = RatesHSC if kind == "hsc" else RatesBDS
    raw = get(cfg, "rates")
    rates = rates_type(**{f.name: get(raw, f.name, "config 'rates'") for f in fields(rates_type)})
    t, init = get(cfg, "t"), get(cfg, "init")
    try:
        init = tuple(init)
    except TypeError:
        raise ValueError(f"config 'init' must be a pair of integers, got {init!r}") from None
    return ModelSpec(kind=kind, rates=rates, t=t, init=init)
