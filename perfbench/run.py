#!/usr/bin/env python3
"""qsymp benchmark: one process, one caller, closed loop.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qsymp checkout; the library is imported from
``src/`` of that checkout and nowhere else.  Set-up imports qsymp and
generates the workload's raw inputs from the seed.  One untimed pass warms
up and is cross-checked by the correctness gates; timed passes then repeat
the same operations until ``--seconds`` have elapsed, and every output must
match the warm-up digest.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes (see tracer.py).  The exit code is 1 when any gate fails.
"""

import os

# One caller and no hidden parallelism: pin native thread pools before numpy
# loads, and use the library's default budget whatever the caller's shell sets.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QSYMP_BUDGET", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

T_PROCESS = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 5
# `--workload all` repeats each workload on seed + this offset.  Seeds from
# 1000 up were not used to tune the benchmark, so they stay held out for
# checking a claim.
HELD_OUT_SEED_OFFSET = 1000

# Every time metric is scaled to a host on which reference_s() takes this
# long; see reference_s().
REF_NOMINAL_S = 0.010

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def import_qsymp():
    """Import qsymp from this checkout's ``src/``; exit without a result otherwise."""
    if not (SRC / "qsymp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qsymp sources at {SRC / 'qsymp'}")
    sys.path.insert(0, str(SRC))
    import qsymp

    if Path(qsymp.__file__).resolve().parent != (SRC / "qsymp").resolve():
        sys.exit(f"perfbench: imported qsymp from {qsymp.__file__}, not from {SRC}")
    return qsymp


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


_rng = np.random.default_rng(0)
_REF_A = _rng.integers(0, 5, size=(2048, 20))
_REF_M = _rng.integers(0, 5, size=(20, 20))
del _rng


def reference_s() -> float:
    """Time a fixed ~10 ms kernel: half interpreter integer work, half small numpy.

    The host this benchmark was written on changes speed by 13-21 % (IQR
    over median) from one 5-40 s window to the next, whatever the run
    length, so raw times of identical work spread as widely as the largest
    allowed bound.  The kernel runs before every op, outside its timer, and
    every time metric is scaled by REF_NOMINAL_S / median(kernel time) of
    its pass.  The kernel mixes the two kinds of work qsymp does, so it slows
    down with the host as qsymp does; it never touches qsymp.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc ^= (i * i) % 7 << (i & 15)
    for _ in range(4):
        acc ^= int((((_REF_A @ _REF_M) % 5) != 0).any(axis=1).sum())
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import qsymp and build the inputs,
    each preceded by a reference_s() sample.

    The wait has no timeout: with one, ``subprocess`` polls in steps of up
    to 50 ms, which would quantise every sample to 50 ms.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference_s())
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples, refs


class PassResult:
    def __init__(self):
        self.op_s: list[float] = []
        self.ref_s: list[float] = []
        self.failures: list[str] = []

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    @property
    def scale(self) -> float:
        """Factor to the reference host speed over this pass (see reference_s())."""
        return REF_NOMINAL_S / statistics.median(self.ref_s)


def run_pass(ops, reference, tracer=None) -> tuple[PassResult, list]:
    """Run every op once; only ``op.run`` is inside the timer.

    An op fails if it raises (budget refusals included) or if its digest
    differs from ``reference`` (the warm-up digests, which the gates
    checked).  Returns the pass result and the raw outputs.
    """
    gc.collect()
    res = PassResult()
    outputs = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op()
        res.ref_s.append(reference_s())
        start = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # every library error counts as a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        res.op_s.append(time.perf_counter() - start)
        outputs.append(out)
        if err is None and reference is not None:
            digest = op.digest(out)
            if reference[i] is None:
                err = "failed its correctness gate in the warm-up pass"
            elif digest != reference[i]:
                err = "output digest differs from the warm-up pass"
        if err is not None:
            res.failures.append(f"{op.label}: {err}")
    return res, outputs


def warm_up(ops) -> tuple[list, list[str]]:
    """Untimed first pass; gates run on its outputs and fix the reference digests."""
    res, outputs = run_pass(ops, None)
    reference, problems = [], list(res.failures)
    failed = {f.split(":", 1)[0] for f in res.failures}
    for op, out in zip(ops, outputs):
        if op.label in failed:
            reference.append(None)
            continue
        errs = op.gate(out)
        problems += [f"{op.label}: {e}" for e in errs]
        reference.append(None if errs else op.digest(out))
    return reference, problems


def timed_passes(ops, reference, seconds, minimum, tracer=None, on_pass=None):
    """Repeat passes until about ``seconds`` have elapsed (at least ``minimum``)."""
    passes = []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset(record=not passes)
        res, _ = run_pass(ops, reference, tracer)
        passes.append(res)
        if on_pass is not None:
            on_pass(res)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= minimum and elapsed + 0.5 * typical >= seconds:
            return passes


def end_to_end(passes, setup_samples, setup_refs) -> tuple[dict, dict, dict]:
    """End-to-end metrics of the untraced passes, sample counts, raw times.

    Times are scaled to the reference host speed (see reference_s()): each
    pass's op times by the factor of that pass, set-up times by the median
    of the samples taken before the probes.  The host's speed changes
    within a run, so a factor per pass tracks it better than one per run
    (measured in README.md).

    Op latencies are summarised per op first (median over passes), then
    across ops.  A percentile of the pooled samples would fall between two
    ops of very different cost and read the slowest run of one or the
    fastest run of the other.
    """
    attempted = sum(len(p.op_s) for p in passes)
    failed = sum(len(p.failures) for p in passes)

    def summary(wall, op_s):
        per_op_ms = [statistics.median(ts) * 1e3 for ts in zip(*op_s)]
        return {
            "wall_s": statistics.median(wall),
            "op_p50_ms": statistics.median(per_op_ms),
            "op_p90_ms": statistics.quantiles(per_op_ms, n=10, method="inclusive")[8],
        }

    raw = {"setup_s": statistics.median(setup_samples),
           **summary([p.wall_s for p in passes], [p.op_s for p in passes])}
    setup_scale = REF_NOMINAL_S / statistics.median(setup_refs)
    values = {"setup_s": raw["setup_s"] * setup_scale,
              **summary([p.wall_s * p.scale for p in passes],
                        [[t * p.scale for t in p.op_s] for p in passes])}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["ok_frac"] = (attempted - failed) / attempted
    samples = {
        "setup_s": len(setup_samples),
        "wall_s": len(passes),
        "op_p50_ms": attempted,
        "op_p90_ms": attempted,
        "peak_rss_mb": 1,
        "ok_frac": attempted,
    }
    raw.update(pass_scale=[p.scale for p in passes], setup_scale=setup_scale)
    return {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}, samples, raw


def traced_run(ops, reference, seconds, workload):
    """An untraced pass, then traced passes; per-layer metrics and self-checks."""
    from tracer import Tracer, per_layer_metrics

    base, _ = run_pass(ops, reference)
    tracer = Tracer()
    snapshots = []

    def snapshot(_res):
        snapshots.append((tracer.layer_counts(), dict(tracer.self_s), dict(tracer.incl_s)))
        if len(snapshots) == 1:
            tracer.write_spans(OUT / f"spans-{workload}.csv.gz")

    tracer.install()
    try:
        passes = timed_passes(ops, reference, seconds - base.wall_s, MIN_TRACED_PASSES,
                              tracer=tracer, on_pass=snapshot)
    finally:
        tracer.uninstall()
    problems = []
    counts = snapshots[0][0]
    for i, (other, _, _) in enumerate(snapshots[1:], start=2):
        if other != counts:
            diff = sorted(k for k in set(counts) | set(other) if counts.get(k) != other.get(k))
            problems.append(f"trace: layer counts of pass {i} differ from pass 1 in {diff[:8]}")

    def median_of(idx):
        keys = set().union(*(s[idx] for s in snapshots))
        return {k: statistics.median(s[idx].get(k, 0.0) for s in snapshots) for k in keys}

    overhead = statistics.median(p.wall_s for p in passes) / base.wall_s
    metrics = per_layer_metrics(counts, median_of(1), median_of(2), overhead)
    return [base] + passes, metrics, problems


def run_workload(args) -> int:
    import_qsymp()
    from workloads import make_ops

    ops = make_ops(args.workload, args.seed)
    setup_in_process = time.perf_counter() - T_PROCESS
    setup_samples, setup_refs = measure_setup(args.workload, args.seed)

    reference, problems = warm_up(ops)
    if args.trace:
        passes, metrics, trace_problems = traced_run(ops, reference, args.seconds, args.workload)
        problems += trace_problems
        samples, raw = {}, {}
    else:
        passes = timed_passes(ops, reference, args.seconds, MIN_PASSES)
        metrics, samples, raw = end_to_end(passes, setup_samples, setup_refs)
    attempted = sum(len(p.op_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    problems += failures

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "ops": [op.label for op in ops],
        "pass_wall_s": [round(p.wall_s, 6) for p in passes],
        "pass_op_s": [[round(t, 6) for t in p.op_s] for p in passes],
        "setup_probe_s": [round(s, 6) for s in setup_samples],
        "setup_ref_s": [round(s, 6) for s in setup_refs],
        "pass_ref_median_s": [round(statistics.median(p.ref_s), 6) for p in passes],
        "raw": raw,
        "setup_in_process_s": round(setup_in_process, 6),
        "samples": samples,
        "units": {k: u for k, (_, u) in metrics.items()},
        "problems": problems[:50],
    }
    for name, (value, unit) in metrics.items():
        line = f"{args.workload:16s} {name:36s} {value:>16.6f} {unit}"
        if name in raw:
            line += f"  (raw {raw[name]:.6f} {unit})"
        if samples.get(name):
            line += f"  (n={samples[name]})"
        print(line)
    for p in problems[:50]:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload on ``--seed`` and on a held-out second seed.

    Each run is a process of its own, because peak RSS is a per-process
    high-water mark.  Metrics are keyed ``<workload>@<seed>.<metric>``.
    """
    from workloads import WORKLOADS

    import_qsymp()  # fail here, before any result is printed, if the sources are missing
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for workload in WORKLOADS:
        for seed in (args.seed, args.seed + HELD_OUT_SEED_OFFSET):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            rc = rc or proc.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                merged["correct"] = False
                rc = rc or 1
                continue
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}@{seed}.{name}"] = m
    print(json.dumps(merged))
    return rc


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        import_qsymp()
        from workloads import make_ops

        make_ops(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
