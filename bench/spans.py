"""In-memory span tracer around the package's public functions.

The tracer replaces each function named in ``TRACED`` with a wrapper in every
``response_solver`` namespace that holds it, so a call made through
``ode.compose``, ``pde.product`` or ``verification.solve_fixed_point`` is
recorded under the module that defines the function.  Each span keeps its
id, name, start, end and parent id; spans stay in memory until the run ends.
Nothing in the package is edited: the wrappers are installed from outside,
after import, and only in the process that asked for a traced run.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED = {
    "spectral": ("synthesize", "analyze", "compose", "product", "norm", "evaluate_at"),
    "multipliers": ("operator_norms", "apply_scaled_inverse", "gamma_bound"),
    "ode": ("solve_fixed_point", "picard_step", "residual",
            "time_integration_crosscheck"),
    "pde": ("pde_solve_fixed_point", "apply_n_inverse", "boussinesq_nonlinearity",
            "pde_residual"),
    "verification": ("newton_oracle_ode", "newton_oracle_pde", "certify_bounds"),
    "cli": ("parse_problem", "write_spectrum_csv", "emit"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Counts recorded at the same boundaries.  Each one is a pure function of the
# inputs, so it must repeat exactly between rounds and between runs.
COUNTERS = {
    "spectral.fft_points": "count",          # complex values transformed
    "spectral.fft_bytes_computed": "B",      # fft_points x 16 B, computed
    "ode.picard_iters": "count",
    "pde.picard_iters": "count",
    "cli.write_spectrum_csv.bytes": "B",
    "cli.emit.bytes": "B",
}

OP_SPAN = "bench.op"


def _file_bytes(*paths: Path) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _csv_bytes(args, kwargs, result) -> int:
    out_dir = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
    stem = args[3] if len(args) > 3 else kwargs.get("stem", "spectrum")
    return _file_bytes(out_dir / f"{stem}_by_index.csv",
                       out_dir / f"{stem}_by_magnitude.csv")


def _emit_bytes(args, kwargs, result) -> int:
    out_dir = Path(args[0] if args else kwargs["out_dir"])
    return _file_bytes(out_dir / "result.json", out_dir / "metadata.json")


# span name -> (counter, increment of one finished call)
_COUNT = {
    "spectral.synthesize": ("spectral.fft_points", lambda a, k, r: r.size),
    "spectral.analyze": ("spectral.fft_points",
                         lambda a, k, r: (a[0] if a else k["values"]).size),
    "ode.solve_fixed_point": ("ode.picard_iters", lambda a, k, r: r[1].iterations),
    "pde.pde_solve_fixed_point": ("pde.picard_iters", lambda a, k, r: r[1].iterations),
    "cli.write_spectrum_csv": ("cli.write_spectrum_csv.bytes", _csv_bytes),
    "cli.emit": ("cli.emit.bytes", _emit_bytes),
}


class Tracer:
    """Span recorder; ``enabled`` is set only while a benchmark op runs."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.op: int | None = None     # parent of spans opened in pool threads
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()      # counters are bumped from pool threads

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counter, increment = _COUNT.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.op
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
            if counter is not None:
                value = increment(args, kwargs, result)
                with self._lock:
                    self.counts[counter] += value
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced function in each namespace of ``modules``."""
        wrappers = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                original = getattr(modules[mod], fn)
                wrappers[id(original)] = self._wrap(f"{mod}.{fn}", original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def begin_op(self) -> tuple[int, float]:
        sid = next(self._ids)
        self.op = sid
        self._stack().append(sid)
        self.enabled = True
        return sid, perf_counter()

    def end_op(self, token: tuple[int, float]) -> None:
        t1 = perf_counter()
        self.enabled = False
        self._stack().pop()
        self.op = None
        sid, t0 = token
        self.spans.append((sid, OP_SPAN, t0, t1, None))

    def take_counts(self) -> dict[str, int]:
        """Counter totals since the last call; resets them."""
        out = dict(self.counts)
        self.counts.clear()
        out["spectral.fft_bytes_computed"] = 16 * out.get("spectral.fft_points", 0)
        return out


def self_times(spans) -> tuple[dict[str, tuple[int, float]], float]:
    """Per span name: (calls, self seconds); and the top-level self time.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children from pool threads can overlap, so the
    covered part is measured on the union of the child intervals.  Top-level
    spans are the layer spans opened directly under an op span.
    """
    children = defaultdict(list)
    ops = set()
    for sid, name, t0, t1, parent in spans:
        if parent is not None:
            children[parent].append((t0, t1))
        if name == OP_SPAN:
            ops.add(sid)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    top_level = 0.0
    for sid, name, t0, t1, parent in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        entry = out[name]
        entry[0] += 1
        entry[1] += (t1 - t0) - covered
        if parent in ops:
            top_level += (t1 - t0) - covered
    return {name: (calls, s) for name, (calls, s) in out.items()}, top_level
