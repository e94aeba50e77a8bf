"""Spans and counters recorded by wrapping the program's layer entry points.

Each target is a name as the calling module looks it up at call time, for
example ``branchcs.cli.full_measurements`` (the name ``cmd_solve`` calls) or
``branchcs.admm._fft2`` (the hook ``u_update`` calls).  Wrapping happens from
the benchmark; the program itself is not edited.  A target whose name is
gone is recorded as missing and its layer reads 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from metrics import Span


def _pgf_points_full(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"grid.pgf_points": n * (n // 2 + 1)}


def _pgf_points_sampled(args, kwargs, result):
    indices = args[2] if len(args) > 2 else kwargs["indices"]
    return {"grid.pgf_points": len(indices) ** 2}


def _sweeps(counter):
    return lambda args, kwargs, report: {counter: report.iterations}


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"matio.bytes_written": os.path.getsize(path)}


def _ode(args, kwargs, sol):
    return {"models.ode_solves": 1, "models.rhs_evals": sol.nfev}


# (module, attribute, span name or None for count-only, counter hook or None)
TARGETS = [
    ("branchcs.cli", "model_from_config", "models.model_from_config", None),
    ("branchcs.cli", "full_measurements", "grid.full_measurements", _pgf_points_full),
    ("branchcs.cli", "invert_full", "grid.invert_full", None),
    ("branchcs.cli", "sample_indices", "grid.sample_indices", None),
    ("branchcs.cli", "sampled_measurements", "grid.sampled_measurements", _pgf_points_sampled),
    ("branchcs.cli", "rel_l2_error", "grid.rel_l2_error", None),
    ("branchcs.grid", "full_measurements", "grid.full_measurements", _pgf_points_full),
    ("branchcs.grid", "invert_full", "grid.invert_full", None),
    ("branchcs.grid", "sample_indices", "grid.sample_indices", None),
    ("branchcs.grid", "sampled_measurements", "grid.sampled_measurements", _pgf_points_sampled),
    ("branchcs.grid", "rel_l2_error", "grid.rel_l2_error", None),
    ("branchcs.models", "solve_ivp", None, _ode),
    ("branchcs.admm", "recover", "admm.recover", _sweeps("admm.recover.sweeps")),
    ("branchcs.admm", "recover_to_error", "admm.recover_to_error",
     _sweeps("admm.recover_to_error.sweeps")),
    ("branchcs.admm", "_fft2", None, lambda *_: {"admm.ffts": 1}),
    ("branchcs.admm", "_ifft2", None, lambda *_: {"admm.ffts": 1}),
    ("branchcs.pgd", "pgd_recover", "pgd.pgd_recover", _sweeps("pgd.iters")),
    ("branchcs.pgd", "_fft2", None, lambda *_: {"pgd.ffts": 1}),
    ("branchcs.pgd", "_ifft2", None, lambda *_: {"pgd.ffts": 1}),
    ("branchcs.oracle", "build_generator", "oracle.build_generator", None),
    ("branchcs.oracle", "transition_probs_uniformized", "oracle.uniformize", None),
    ("branchcs.matio", "write_matrix", "matio.write_matrix", _bytes_written),
    ("branchcs.matio", "read_matrix", "matio.read_matrix", None),
]


class Tracer:
    """Keeps spans and counters in memory until the run ends.

    Spans and counts are charged to ``unit`` (set with ``charge``); calls made
    while no unit is set pass through unrecorded.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.missing: list[str] = []
        self.unit = None
        self._stack: list[int] = []
        self._saved: list = []

    @contextmanager
    def charge(self, unit):
        prev, self.unit = self.unit, unit
        try:
            yield
        finally:
            self.unit = prev

    @contextmanager
    def span(self, name: str):
        if self.unit is None:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, name, start, end, parent, self.unit)

    def _wrap(self, fn, span_name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.unit is None:
                return fn(*args, **kwargs)
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                for name, value in hook(args, kwargs, result).items():
                    tracer.counts[(tracer.unit, name)] += value
            return result

        return wrapper

    def install(self):
        """Replace every target name with a recording wrapper."""
        if self._saved:
            return
        self.missing = []
        for module_name, attr, span_name, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, hook))

    def uninstall(self):
        """Put every wrapped name back."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
