"""Benchmark of singlib: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run measures set-up time, then runs whole rounds of
the workload's ops one after another, timing each op from outside the
library and scaling it to a fixed host speed (see ``reference_sample``).
It stops at the round boundary nearest to S seconds, once enough ops have
run for the tail percentile.  Every op's output is then checked against
values computed apart from the library.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` the same loop runs with every public library function
wrapped in a span, and the metrics are the per-layer self times and counts.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from tracer import CERT_BYTES, EXACT, Tracer, count_names, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_BEFORE = 3  # set-up samples before the first round
SETUP_AFTER_ROUND = 2  # and after every round
HARD_CAP_S = 120.0  # stop starting rounds after this, even below the op minimum
# Op times are reported at a fixed host speed: the speed at which
# reference_sample takes REFERENCE_S, about its median on the machine that
# README.md describes.
REFERENCE_S = 0.005
# an op's speed is the mean of this many reference samples on each side of it
REFERENCE_WINDOW = 4


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing the CLI module, which
    every `sing` call pays before any work.

    Bytecode is cached under OUT_DIR, as an installed package would have it,
    whatever PYTHONDONTWRITEBYTECODE says.  No timeout is passed: with one,
    ``wait`` polls at 50 ms steps and the measured time snaps to them.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import singlib.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def min_ops(percentile: int) -> int:
    """Fewest ops with at least ten beyond the nearest-rank percentile."""
    n = 1
    while n - math.ceil(percentile * n / 100) < 10:
        n += 1
    return n


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    return sorted_values[math.ceil(percentile * len(sorted_values) / 100) - 1]


# two fixed 6x6 rational matrices; their product is the reference work
_REF_A = [[Fraction(i + 2 * j + 1, j + 3) for j in range(6)] for i in range(6)]
_REF_B = [[Fraction(3 * i - j, i + j + 2) for j in range(6)] for i in range(6)]


def reference_sample(repeats: int = 4) -> float:
    """Wall time of fixed pure-Python work: the speed the host gives this
    process at the moment.

    The host is shared, and its speed for one process moves by up to a factor
    of two over minutes.  The sample is taken before every op and once after
    the last, and each op's time is scaled by REFERENCE_S over the mean of
    the REFERENCE_WINDOW samples on each side of it: one sample is noisy,
    and the host's speed holds for seconds.  The work is exact rational matrix
    products, the same kind of work as the library's (allocation of small
    objects, integer gcds), so that contention for caches and memory slows it
    as it slows the ops.  It calls nothing of the library, and runs with the
    garbage collector paused, so that neither a change to the library nor
    one to the collector's settings moves it.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(repeats):
        [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*_REF_B)]
         for row in _REF_A]
    t = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t


def run_rounds(ops, seconds: float, least: int, tracer=None, between=None,
               probe=None) -> dict:
    """Closed loop over whole rounds of ``ops``; one op starts when the
    previous one returns.  ``between`` runs after every round, and
    ``probe`` before every op and once after the last, both outside the
    timed phase."""
    times: list[float] = []
    records: list[tuple[int, int, float, float]] = []  # round, op, start, duration
    probes: list[float] = []
    failures: list[str] = []
    first: dict = {}
    changed: list[str] = []
    rounds = 0
    paused = 0.0
    t_start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if probe:
                t0 = time.perf_counter()
                probes.append(probe())
                paused += time.perf_counter() - t0
            span = tracer.span(f"op:{op.kind}") if tracer else contextlib.nullcontext()
            error = None
            with span:
                t0 = time.perf_counter()
                try:
                    raw = op.run()
                except Exception as e:  # a failed op is counted, the loop goes on
                    error = f"{type(e).__name__}: {e}"
                t1 = time.perf_counter()
            times.append(t1 - t0)
            records.append((rounds, i, t0 - t_start, t1 - t0))
            if error is None and op.kind in ("certify", "verify") and raw[0] != 0:
                error = f"exit code {raw[0]}"
            if error is not None:
                failures.append(f"{op.key}: {error}")
                continue
            summary = op.summarize(raw)
            if tracer and op.kind == "certify":
                tracer.counts[CERT_BYTES] += len(raw[1].encode())
            if op.key not in first:
                first[op.key] = summary
            elif _public(summary) != _public(first[op.key]):
                changed.append(op.key)
        rounds += 1
        if tracer:
            tracer.end_round()
        elapsed = time.perf_counter() - t_start - paused
        if between:
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
        # stop at the round boundary nearest to ``seconds``, so that a run
        # measures about ``seconds`` whatever its round length
        if (elapsed + elapsed / rounds / 2 >= seconds and len(times) >= least) \
                or elapsed >= HARD_CAP_S:
            break
    if probe:
        probes.append(probe())
    return {"times": times, "records": records, "probes": probes, "elapsed": elapsed,
            "rounds": rounds,
            "failures": failures, "first": first, "changed": changed}


def _public(summary):
    if isinstance(summary, dict):
        return {k: v for k, v in summary.items() if not k.startswith("_")}
    return summary


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "singlib").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def count_mismatches(tracer, workload: str, seed: int) -> tuple[dict, list[str]]:
    """Counts of the first round; differences between rounds of this run and
    against an earlier run of the same seed and the same sources."""
    per_round = [{k: r.get(k, 0) for k in count_names()} for r in tracer.rounds]
    counts = per_round[0]
    notes = [f"round {i + 1}: {k} = {r[k]}, round 1 had {counts[k]}"
             for i, r in enumerate(per_round) for k in EXACT if r[k] != counts[k]]
    OUT_DIR.mkdir(exist_ok=True)
    ref = OUT_DIR / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if ref.exists():
        old = json.loads(ref.read_text())
        notes += [f"{k} = {counts[k]}, an earlier run with this seed had {old.get(k)}"
                  for k in EXACT if old.get(k) != counts[k]]
    else:
        ref.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return counts, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "singlib" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # set-up is sampled before the first round and after every round, so that
    # its median spans the run rather than one moment of it
    setup = []

    def sample_setup(n=SETUP_AFTER_ROUND):
        setup.extend(setup_sample() for _ in range(n))
    if not args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        setup_sample()  # the first start writes the bytecode cache
        sample_setup(SETUP_BEFORE)

    sys.path.insert(0, str(SRC))
    import singlib
    import singlib.cli  # noqa: F401 - the family workload drives the CLI

    ops = workloads.build(args.workload, args.seed, singlib)
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(singlib)
    res = run_rounds(ops, args.seconds, min_ops(percentile), tracer,
                     None if args.trace else sample_setup, reference_sample)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    errors = [f"{key}: output changed between rounds" for key in sorted(set(res["changed"]))]
    for op in ops:
        if op.key in res["first"]:
            errors += [f"{op.key}: {e}" for e in checks.check_op(singlib, op, res["first"][op.key])]
    for line in res["failures"][:10] + errors[:20]:
        print(line, file=sys.stderr)

    probes = res["probes"]
    scale = REFERENCE_S / statistics.median(probes)
    w = REFERENCE_WINDOW
    times = sorted(t * REFERENCE_S / statistics.fmean(probes[max(0, i + 1 - w):i + 1 + w])
                   for i, t in enumerate(res["times"]))
    ops_per_s = len(times) / sum(times)
    if tracer:
        metrics = {k: (v * scale if u == "s" else v, u)
                   for k, (v, u) in layer_metrics(tracer, res["rounds"]).items()}
        counts, notes = count_mismatches(tracer, args.workload, args.seed)
        for line in notes:
            print(f"count mismatch: {line}", file=sys.stderr)
        metrics.update({k: (v, "count") for k, v in counts.items()})
        metrics["trace.count_mismatches"] = (len(notes), "count")
        metrics["trace.ops_per_s"] = (ops_per_s, "ops/s")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"times-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"keys": [op.key for op in ops], "setup": setup, "records": res["records"],
             "probes": res["probes"]}) + "\n")
        metrics = {
            "setup_s": (statistics.median(setup) * scale, "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (nearest_rank(times, percentile), "s"),
            "ops_per_s": (ops_per_s, "ops/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    unscaled = f"set-up {statistics.median(setup):.4f} s, " if setup else ""
    print(f"{args.workload} seed {args.seed}: {len(times)} ops in {res['rounds']} rounds, "
          f"{len(res['failures'])} failed, {len(errors)} check errors; tail is p{percentile}; "
          f"unscaled median {unscaled}op {statistics.median(res['times']):.4f} s, "
          f"{len(times) / res['elapsed']:.4f} ops/s; "
          f"reference sample median {statistics.median(probes) * 1e3:.3f} ms")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(times),
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
