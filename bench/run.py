"""Benchmark of response_solver: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (nothing needs installing; the package
is imported from ``src/``):

    python3 bench/run.py --workload ode_sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``cli_configs``,
``ode_sweep``, ``pde_solve`` and ``verify_oracles``.  The seed generates the
eps samples and forcing; the package receives only the generated inputs.

A run sets up (import, build every problem, one untimed warm-up op), then
repeats the workload's round of ops while another round fits in
``--seconds`` (always at least one round).  Every op is checked after it is timed.

The benchmark pins itself and its children to one core and BLAS to one
thread, so the package's FFT pool shares that core and all load comes from
one process.  Times are taken both as CPU time of the process
(``time.process_time``) and as wall time.  On a shared virtual machine the
wall time also counts the time the host gives the core to other guests
(steal), which comes in episodes of minutes and can double a run; CPU time
leaves that out.  CPU time still moves with what other guests run on the
same physical core and cache: on a shared 2-vCPU virtual machine the same
round took from 0.65 to 1.2 times its usual CPU time, in spells of seconds
to minutes.  So the untraced
rounds also time a fixed reference kernel (``Reference``: numpy and scipy
work that uses none of the package) between ops, and the bounded round
metric is the round's CPU time divided by the median CPU time of one
reference unit in the same run: a cost in reference units, which moves
less with the host's speed (in two ten-run sets per workload on a shared
2-vCPU virtual machine, its spread was at most 17% of the median where the
CPU seconds reached 22%, and the two sets' medians agreed within 4%).  It
helps most where ops are short: the reference cannot run during an op, so
a round made of one long op (cli_configs, verify_oracles) gains little.
Per-op times stay unbounded: most
ops take milliseconds, so each one sees the host's speed of that moment,
and on ode_sweep their median moved by up to 30% between runs even in
reference units.

``--trace 0`` reports the end-to-end metrics (untraced):

- ``setup_s``: median CPU time of the set-up, over this process and two
  fresh child processes that only set up;
- ``round_ref``: median over rounds of the CPU time to finish a round's
  ops, in reference units;
- ``peak_rss_mb``: peak resident memory of this process.

It also prints, unbounded: ``cpu_s`` (``round_ref`` in CPU seconds),
``op_cpu_s_p50`` (median CPU time per op), ``wall_s`` and ``op_s_p50`` (the
same two in wall time), the median wall set-up time and the reference
unit's median CPU time with its sample count;
and ``failed_ratio`` with its counts and, where a run has at least 100 ops,
``op_s_tail``: the highest percentile of op wall time with ten samples
beyond it.

``--trace 1`` first measures untraced rounds, then wraps the package's public
functions (``spans.py``) and measures traced rounds.  It reports, per round,
the calls and self time of each traced function and the exact counts, checks
that the counts repeat in every traced round, and prints the tracing
overhead (traced minus untraced ``wall_s``).

``--out FILE`` writes the full result with the machine and thread settings;
``--compare FILE`` prints each metric's ratio to an earlier result file.  The
comparison is a report only and gates nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cli_configs", "ode_sweep", "pde_solve", "verify_oracles")
SETUP_CHILDREN = 2
TAIL_MIN_OPS = 100

# Pin BLAS/OpenMP pools before numpy loads; load comes from this one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# One core for this process and the set-up children it starts.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

END_TO_END_UNITS = {"setup_s": "s", "round_ref": "ref", "peak_rss_mb": "MB"}


class Reference:
    """A fixed unit of numpy and scipy work that calls nothing in the package.

    Its mix resembles a Picard step: small 2-D FFTs with Python-level
    arithmetic between them, and 3-D FFTs of a PDE-sized grid.  One unit is
    timed (CPU) before an op when ``INTERVAL_S`` has passed since the last
    one, outside the op's own timing, so its samples follow the host's
    speed through the run.
    """

    INTERVAL_S = 0.5

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.random((64, 64)) + 1j * rng.random((64, 64))
        self.grid = rng.random((48, 48, 48)) + 1j * rng.random((48, 48, 48))
        self.samples: list[float] = []
        self.last = -math.inf

    def run(self) -> None:
        import numpy as np
        import scipy.fft as sfft

        c0 = time.process_time()
        total = 0.0
        for _ in range(20):
            spec = sfft.ifft2(sfft.fft2(self.small) * self.small)
            total += float(np.abs(spec).max())
            for j in range(300):
                total += j * 0.5
        for _ in range(2):
            sfft.ifftn(sfft.fftn(self.grid) * self.grid)
        self.samples.append(time.process_time() - c0)
        self.last = time.perf_counter()

    def between_ops(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.run()


class Round:
    """Timings and check outcomes of one round of a workload's ops."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.ops: list[tuple[str, float, float]] = []   # label, wall s, CPU s
        self.wall = 0.0
        self.cpu = 0.0
        self.passes = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}   # exact counts of a traced round
        self.spans_end = 0                 # tracer.spans index after the round

    def op(self, label: str, fn):
        """Run one op, timed (and traced when a tracer is set)."""
        if self.reference is not None:
            self.reference.between_ops()
        token = self.tracer.begin_op() if self.tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn()
        finally:
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            if token is not None:
                self.tracer.end_op(token)
            self.ops.append((label, dt, dc))
            self.wall += dt
            self.cpu += dc

    def passed(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        else:
            self.passes += 1


def set_up(name: str, seed: int, workdir: Path):
    """Import the package, build the workload and run one warm-up op.

    Returns the workload and the set-up's (CPU, wall) seconds.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import response_solver

    package = Path(response_solver.__file__).resolve()
    if ROOT / "src" not in package.parents:
        raise ImportError(f"response_solver loaded from {package}, not from {ROOT / 'src'}")
    import workloads

    workload = workloads.WORKLOADS[name](ROOT, seed, workdir)
    workload.warmup()
    return workload, (time.process_time() - c0, time.perf_counter() - t0)


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, tracer=None, reference=None) -> list[Round]:
    """Repeat rounds while another one fits in ``seconds`` (at least one round)."""
    rounds = []
    start = time.perf_counter()
    elapsed = round_s = 0.0
    while not rounds or elapsed + round_s <= seconds:
        t0 = time.perf_counter()
        rnd = Round(tracer, reference)
        gc.collect()               # start each round without the last one's garbage
        try:
            workload.run_round(rnd)
        except Exception:          # an op that raised: its round still counts
            rnd.failures.append(traceback.format_exc())
        if tracer is not None:
            rnd.counts = tracer.take_counts()
            rnd.spans_end = len(tracer.spans)
        rounds.append(rnd)
        round_s = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
    return rounds


def tail(times: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(times)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": pct,
                    "beyond": n - rank, "samples": n}
    return None


def layer_metrics(tracer, rounds: list[Round]) -> tuple[dict, list[str], float]:
    """Per-round layer metrics: exact counts, and self time medians over rounds.

    Returns the metrics, the problems found (a count that differs between
    rounds, or top-level self times that add up to more than the round's
    wall time) and the median over rounds of the summed layer self time.
    """
    import spans as sp

    per_round, layer_sums, problems = [], [], []
    begin = 0
    for i, rnd in enumerate(rounds):
        times, top_level = sp.self_times(tracer.spans[begin:rnd.spans_end])
        begin = rnd.spans_end
        if top_level > rnd.wall:
            problems.append(f"round {i}: top-level self times {top_level:.4f} s "
                            f"exceed its wall time {rnd.wall:.4f} s")
        row = {}
        for name in sp.SPAN_NAMES:
            calls, self_s = times.get(name, (0, 0.0))
            row[f"{name}.calls"] = calls
            row[f"{name}.self_s"] = self_s
        for name in sp.COUNTERS:
            row[name] = rnd.counts.get(name, 0)
        per_round.append(row)
        layer_sums.append(sum(row[f"{name}.self_s"] for name in sp.SPAN_NAMES))
    metrics = {}
    for key in per_round[0]:
        values = [row[key] for row in per_round]
        if key.endswith(".self_s"):
            metrics[key] = {"value": statistics.median(values), "unit": "s"}
            continue
        if len(set(values)) > 1:
            problems.append(f"{key} differs between rounds: {values}")
        metrics[key] = {"value": values[0], "unit": sp.COUNTERS.get(key, "count")}
    return metrics, problems, statistics.median(layer_sums)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            caches[f"L{level} {kind}"] = size
    except OSError:                # no sysfs cache description on this machine
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches or "unknown",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "fft_workers": "spectral calls scipy.fft with workers=-1 (all cores; "
                       "the affinity above confines them to one)",
    }


def compare(previous: Path, doc: dict) -> None:
    """Print each metric's ratio to an earlier result file; gates nothing."""
    old = json.loads(previous.read_text())
    print(f"compare with {previous} (ratio = this run / earlier run)")
    for name, entry in doc["metrics"].items():
        if name not in old.get("metrics", {}):
            continue
        new_v, old_v = entry["value"], old["metrics"][name]["value"]
        ratio = f"{new_v / old_v:.4f}" if old_v else "n/a"
        print(f"  {name}: {new_v:.6g} / {old_v:.6g} {entry['unit']} = {ratio}")
    if old.get("seed") == doc["seed"] and "counts" in old and "counts" in doc:
        same = old["counts"] == doc["counts"]
        print(f"  exact counts {'identical' if same else 'DIFFER'} (same seed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full result here")
    parser.add_argument("--compare", type=Path, help="earlier result file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "response_solver" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup] + [setup_in_child(args.workload, args.seed)
                                for _ in range(SETUP_CHILDREN)]
        reference = Reference()
        untraced = measure(workload, args.seconds, reference=reference)
        reference.run()
        traced, tracer = [], None
        if args.trace:
            import response_solver
            import spans

            tracer = spans.Tracer()
            tracer.install({name: getattr(response_solver, name) for name in
                            ("spectral", "multipliers", "ode", "pde",
                             "verification", "cli")} | {"": response_solver})
            traced = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:            # another run still uses it
            pass

    rounds = untraced + traced
    attempted = workload.planned * len(rounds)
    failed = attempted - sum(r.passes for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    op_times = [dt for r in untraced for _, dt, _ in r.ops]
    wall = statistics.median(r.wall for r in untraced)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "rounds": {"untraced": [r.wall for r in untraced],
                   "traced": [r.wall for r in traced]},
        "failed_ratio": failed / attempted, "attempted": attempted, "failed": failed,
    }
    correct = failed == 0 and not failures
    if not args.trace:
        cpu = statistics.median(r.cpu for r in untraced)
        op_cpu = statistics.median(dc for r in untraced for *_, dc in r.ops)
        ref = statistics.median(reference.samples)
        values = {
            "setup_s": statistics.median(cpu for cpu, _ in setups),
            "round_ref": cpu / ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        doc["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                          for k, v in values.items()}
        doc["unbounded"] = {
            "cpu_s": {"value": cpu, "unit": "s"},
            "op_cpu_s_p50": {"value": op_cpu, "unit": "s"},
            "reference_unit_cpu_s": {"value": ref, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_s_p50": {"value": statistics.median(op_times), "unit": "s"},
            "setup_wall_s": {"value": statistics.median(w for _, w in setups), "unit": "s"},
        }
        doc["setup_samples_s"] = [{"cpu": c, "wall": w} for c, w in setups]
        doc["reference_samples"] = len(reference.samples)
        doc["op_s_tail"] = tail(op_times)
        doc["wall_s_by_label"] = wall_by_label(untraced)
    else:
        metrics, problems, layer_sum = layer_metrics(tracer, traced)
        traced_wall = statistics.median(r.wall for r in traced)
        doc["metrics"] = metrics
        doc["counts"] = {k: v["value"] for k, v in metrics.items()
                         if not k.endswith(".self_s")}
        doc["tracing"] = {"wall_s_untraced": wall, "wall_s_traced": traced_wall,
                          "overhead_s": traced_wall - wall,
                          "layer_self_sum_s": layer_sum, "spans": len(tracer.spans)}
        for problem in problems:
            print(f"TRACE CHECK FAILED {problem}", file=sys.stderr)
        correct = correct and not problems
    report(doc)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    if args.compare:
        compare(args.compare, doc)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": doc["metrics"]}))
    return 0


def wall_by_label(rounds: list[Round]) -> dict[str, float]:
    """Median per round of the summed op time of each label group."""
    per_round = []
    for rnd in rounds:
        sums: dict[str, float] = {}
        for label, dt, _ in rnd.ops:
            sums[label] = sums.get(label, 0.0) + dt
        per_round.append(sums)
    return {label: statistics.median(r.get(label, 0.0) for r in per_round)
            for label in per_round[0]}


def report(doc: dict) -> None:
    env = doc["environment"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
          f"rounds {len(doc['rounds']['untraced'])}+{len(doc['rounds']['traced'])}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  caches {env['caches']}  "
          f"BLAS threads 1  ({env['fft_workers']})")
    for name, entry in doc["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for name, entry in doc.get("unbounded", {}).items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}  (unbounded)")
    print(f"failed_ratio = {doc['failed_ratio']:.6g}  "
          f"({doc['failed']} failed / {doc['attempted']} attempted)")
    if "reference_samples" in doc:
        print(f"reference unit timed {doc['reference_samples']} times")
    if doc.get("op_s_tail"):
        t = doc["op_s_tail"]
        print(f"op_s_tail = {t['value']:.6g} s  (p{t['percentile']}, "
              f"{t['beyond']} of {t['samples']} ops beyond)")
    for label, value in doc.get("wall_s_by_label", {}).items():
        print(f"  wall_s[{label}] = {value:.6g} s")
    if "tracing" in doc:
        t = doc["tracing"]
        print(f"tracing overhead = {t['overhead_s']:.6g} s  (traced wall_s "
              f"{t['wall_s_traced']:.6g} s - untraced {t['wall_s_untraced']:.6g} s); "
              f"layer self-time sum {t['layer_self_sum_s']:.6g} s; {t['spans']} spans")


if __name__ == "__main__":
    sys.exit(main())
