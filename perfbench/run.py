"""brcomp benchmark: seeded workloads, end-to-end metrics, traced per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curve --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy loads: curve_rows reads BRCOMP_THREADS,
# and the benchmark runs in one thread.
_REMOVED_THREADS = os.environ.pop("BRCOMP_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import selectors
import statistics
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_BATCHES = 3
# calibration kernel: CAL_REF_S is its time on the reference host at its fastest
CAL_LOOPS = 8000
CAL_ARRAY_OPS = 80
CAL_REF_S = 0.0025
PROBE = "import workloads; workloads.warm_up(); print('ready', flush=True)"


def _import_program():
    """Import brcomp from this checkout's src, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import brcomp
    except ImportError as exc:
        sys.exit(f"cannot import brcomp from {SRC}: {exc}")
    if Path(brcomp.__file__).resolve().parent.parent != SRC:
        sys.exit(f"brcomp was imported from {brcomp.__file__}, not from {SRC}")


_import_program()
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

_CAL_X = np.linspace(0.0, 1.0, 4096)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def calibration_time() -> float:
    """Seconds taken by a fixed kernel that mixes Python float arithmetic and
    small numpy operations, the two kinds of work brcomp does."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(CAL_LOOPS):
        s += math.exp(-i * 1e-3) * math.log1p(i)
    for _ in range(CAL_ARRAY_OPS):
        s += float(np.log1p(np.exp(-_CAL_X)).sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal: float) -> float:
    """A measured time scaled to the host speed at which the calibration
    kernel takes CAL_REF_S."""
    return seconds * CAL_REF_S / cal


class Batches:
    """Per-operation times of repeated runs of one batch.

    Each operation's time is scaled by the calibration kernel timed just
    before and just after it, and its estimate is the median over the
    repetitions.
    """

    def __init__(self, n_ops: int):
        self.wall = [[] for _ in range(n_ops)]
        self.cpu = [[] for _ in range(n_ops)]
        self.cal = [[] for _ in range(n_ops)]
        self.outputs: list[list] = []
        self.batch_wall: list[float] = []

    def op_wall(self) -> list[float]:
        return [statistics.median(at_reference_speed(w, c) for w, c in zip(ws, cs))
                for ws, cs in zip(self.wall, self.cal)]

    def wall_s(self) -> float:
        return math.fsum(self.op_wall())

    def cpu_s(self) -> float:
        return math.fsum(statistics.median(at_reference_speed(t, c) for t, c in zip(ts, cs))
                         for ts, cs in zip(self.cpu, self.cal))

    def raw_wall_s(self) -> float:
        """The same estimate without scaling, for comparison."""
        return math.fsum(statistics.median(ws) for ws in self.wall)


class Raised(NamedTuple):
    error: str


def run_batches(ops, budget_s: float, min_batches: int, tracer=None) -> Batches:
    """Closed loop: each operation starts when the previous one returns.

    The whole batch repeats until the next repetition would end past the
    budget, and at least ``min_batches`` times.  An operation that raises
    is recorded by its exception text and counted as failed.
    """
    b = Batches(len(ops))
    start = time.perf_counter()
    while True:
        t_batch = time.perf_counter()
        outs = []
        cal_before = calibration_time()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(b.batch_wall) * len(ops) + i
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = workloads.run_op(op)
            except Exception as exc:  # a failed operation must not stop the run
                out = Raised(f"{type(exc).__name__}: {exc}")
            c1, w1 = time.process_time(), time.perf_counter()
            cal_after = calibration_time()
            b.wall[i].append(w1 - w0)
            b.cpu[i].append(c1 - c0)
            b.cal[i].append(0.5 * (cal_before + cal_after))
            cal_before = cal_after
            outs.append(out)
        b.batch_wall.append(time.perf_counter() - t_batch)
        b.outputs.append(outs)
        n = len(b.batch_wall)
        projected = time.perf_counter() - start + statistics.median(b.batch_wall)
        if n >= min_batches and projected > budget_s:
            return b


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten beyond
    it; the median sample is reported then.  Returns (value, percentile,
    samples beyond).
    """
    s = sorted(latencies)
    n = len(s)
    idx = max(n - 11, (n - 1) // 2)
    return s[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def setup_probe_times(n: int) -> list[tuple[float, float]]:
    """Seconds from launching a fresh interpreter until it has imported numpy
    and brcomp and made the warm-up call, at reference speed and as measured.
    Probes run one at a time, before any timed interval."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    times = []
    for _ in range(n):
        cal_before = calibration_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                ready = sel.select(timeout=PROBE_TIMEOUT_S) and proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready != "ready\n":
            raise RuntimeError(f"set-up probe did not become ready: {err.strip()[-500:]}")
        cal = 0.5 * (cal_before + calibration_time())
        times.append((at_reference_speed(t1 - t0, cal), t1 - t0))
    return times


def check_outputs(workload: str, seed: int, ops, runs: list[Batches]) -> tuple[int, int, list]:
    """Count attempted and failed operation runs.

    A run fails if it raised, if its output differs bit for bit from the
    first run of the same operation, if that output fails its check, or, for
    the default seed, if it is outside the tolerance of the recorded
    reference.  Checks run outside every timed interval.
    """
    first = runs[0].outputs[0]
    ref = _reference(workload, seed, ops)
    bad_op = []
    for i, (op, out) in enumerate(zip(ops, first)):
        if isinstance(out, Raised):
            reason = out.error
        else:
            try:
                reason = workloads.check_op(op, out)
            except Exception as exc:  # a check that cannot run fails its operation
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and ref is not None and ref[i] is not None:
                reason = workloads.compare_reference(op, out, ref[i])
        bad_op.append(reason)
    attempted = failed = 0
    reasons = []
    for b in runs:
        for outs in b.outputs:
            for i, out in enumerate(outs):
                attempted += 1
                reason = bad_op[i] or (None if repr(out) == repr(first[i])
                                       else "output differs from the first untraced run")
                if reason:
                    failed += 1
                    reasons.append(f"op {i} ({ops[i].kind}): {reason}")
    return attempted, failed, reasons


def _reference(workload: str, seed: int, ops):
    if seed != DEFAULT_SEED:
        return None
    ref = json.loads(REFERENCE.read_text())[workload]
    if ref["inputs"] != workloads.inputs_digest(ops):
        raise RuntimeError("default-seed inputs differ from the recorded reference")
    return ref["outputs"]


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "seed": seed,
            "BRCOMP_THREADS": "removed" if _REMOVED_THREADS is not None else "unset"}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    probes = setup_probe_times(SETUP_PROBES)
    setup = statistics.median(t for t, _ in probes)
    raw_setup = statistics.median(raw for _, raw in probes)
    ops = workloads.make_ops(workload, seed)
    workloads.warm_up()
    b = run_batches(ops, seconds, MIN_BATCHES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, reasons = check_outputs(workload, seed, ops, [b])
    per_op = b.op_wall()
    tail_s, pct, beyond = tail(per_op)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (b.wall_s(), "s"),
        "cpu_s": (b.cpu_s(), "s"),
        "op_p50_ms": (1000.0 * statistics.median(per_op), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"operations": len(ops), "batches": len(b.batch_wall),
            "raw_wall_s": b.raw_wall_s(), "raw_setup_s": raw_setup,
            "calibration_ms_median": 1000.0 * statistics.median(
                c for cs in b.cal for c in cs),
            "op_tail_percentile": pct, "op_tail_beyond": beyond,
            "failed_frac": failed / attempted, "op_ms": [1000.0 * x for x in per_op],
            "samples": [list(zip(ws, cs)) for ws, cs in zip(b.wall, b.cal)]}
    return _result(workload, seed, 0, metrics, info, attempted, failed, reasons)


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    ops = workloads.make_ops(workload, seed)
    workloads.warm_up()
    plain = run_batches(ops, seconds / 2, 1)
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    tracer.install()
    try:
        traced = run_batches(ops, seconds / 2, 1, tracer)
    finally:
        tracer.uninstall()
    attempted, failed, reasons = check_outputs(workload, seed, ops, [plain, traced])
    per_batch = tracing.summarize(tracer.spans, lambda op: op // len(ops))
    counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in per_batch]
    if any(c != counts[0] for c in counts):
        failed += 1
        reasons.append("call counts differ between traced batches")
    metrics = {}
    for name in per_batch[0]:
        vals = [m[name] for m in per_batch]
        unit = "count" if name.endswith(".calls") else "s" if name.endswith("_s") else "ratio"
        metrics[name] = (vals[0] if unit == "count" else statistics.fmean(vals), unit)
    metrics["trace_overhead_frac"] = (traced.wall_s() / plain.wall_s() - 1.0, "frac")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
    tracer.write(spans_path, t0)
    info = {"operations": len(ops), "untraced_batches": len(plain.batch_wall),
            "traced_batches": len(traced.batch_wall), "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "failed_frac": failed / attempted}
    return _result(workload, seed, 1, metrics, info, attempted, failed, reasons)


def _result(workload, seed, trace, metrics, info, attempted, failed, reasons) -> dict:
    return {"workload": workload, "trace": trace, "env": environment(seed), "info": info,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "reasons": reasons[:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report(res: dict) -> None:
    """Human-readable lines, then the result file under perfbench/out."""
    w = res["workload"]
    print(f"# {w} trace={res['trace']} env {json.dumps(res['env'])}")
    shown = {k: v for k, v in res["info"].items() if k not in ("op_ms", "samples")}
    print(f"# {w} info {json.dumps(shown)}")
    print(f"# {w} attempted={res['attempted']} failed={res['failed']}")
    for reason in res["reasons"]:
        print(f"# {w} FAILED {reason}")
    for name, m in res["metrics"].items():
        print(f"# {w} {name} = {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{w}-seed{res['env']['seed']}-trace{res['trace']}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics, 1: per-layer metrics "
                         "(default: one workload untraced; 'all' runs both)")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (args.trace,) if args.trace is not None else \
        ((0, 1) if args.workload == "all" else (0,))
    results = []
    for name in names:
        for trace in modes:
            run = run_traced if trace else run_untraced
            res = run(name, args.seed, args.seconds)
            report(res)
            results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:   # several runs in one process: peak_rss_mb is the peak so far
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
