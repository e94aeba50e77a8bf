"""Built-in ADMM stepsizes keyed by (model, N), plus the penalty heuristics."""

from __future__ import annotations

import math

from .admm import AdmmConfig

__all__ = ["admm_lambda", "pgd_lambda", "admm_defaults", "DEFAULT_SPARSITY_K"]

# Fitted so default_m reproduces the published HSC benchmark M column.
DEFAULT_SPARSITY_K = 126

# Per-(model, N) ADMM stepsize beta used in the benchmark runs; every row, and
# the fallback, takes AdmmConfig's stopping tolerances.
_TABLE = {
    ("hsc", 64): 0.08,
    ("hsc", 128): 0.005,
    ("hsc", 256): 0.08,
    ("hsc", 512): 0.005,
    ("hsc", 1024): 0.005,
    ("bds", 64): 0.005,
    ("bds", 128): 0.005,
    ("bds", 256): 0.005,
    ("bds", 512): 0.0005,
    ("bds", 1024): 0.0005,
}

_FALLBACK = 0.01


def admm_lambda(m: int) -> float:
    """ADMM l1 penalty heuristic: 0.5 log M."""
    return 0.5 * math.log(m)


def pgd_lambda(kind: str, m: int) -> float:
    """PGD penalty heuristic: sqrt(log M) for HSC, log M for BDS."""
    return math.sqrt(math.log(m)) if kind == "hsc" else math.log(m)


def admm_defaults(kind: str, n: int, m: int, max_iter: int = 500, **overrides) -> AdmmConfig:
    """AdmmConfig of the preset beta for (kind, n), or the fallback, lam =
    admm_lambda(m) and max_iter; keyword overrides that are not None win."""
    params = dict(beta=_TABLE.get((kind, n), _FALLBACK), lam=admm_lambda(m), max_iter=max_iter)
    params.update({k: v for k, v in overrides.items() if v is not None})
    return AdmmConfig(**params)
