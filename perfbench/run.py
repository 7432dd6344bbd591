"""Benchmark of the loopsl2 library: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/loopsl2).
Each sample is a fresh interpreter (perfbench/sample.py) that imports
loopsl2 from src/, generates the workload's inputs from the seed, times
only its calls into loopsl2, then checks every output by an independent
route.  Load is one process and one thread in a closed loop: each call
starts when the previous one returns, and samples run one after another
until about S seconds of calls have been timed (at least three samples).

--trace 0 prints the end-to-end metrics over the run's samples.  Each op's
latency is the median over the samples of its calibrated latency: measured,
then scaled to a fixed reference speed by a calibration kernel timed between
the calls (sample.py says why).  ops_per_s, op_p50_ms and op_tail_ms derive
from those; setup_s and peak_rss_mb are medians over the samples.

--trace 1 runs one untraced and one traced sample on the same inputs and
prints the per-layer metrics of the traced one, with trace.overhead_ratio =
traced timed time / untraced timed time, both at the reference speed; its
spans go to perfbench/out/.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 1 when any output check fails and 2
on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("oracle-sweep", "window-scan", "exact-division", "cli-requests")
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120
RUN_CAP_S = 140        # stop starting samples after this, whatever --seconds says


class SampleError(RuntimeError):
    pass


def machine() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return (f"cpu={model or 'unknown'}; nproc={os.cpu_count()}; "
            f"python={platform.python_version()} ({platform.python_implementation()}); "
            f"os={platform.system()} {platform.release()}")


def run_sample(root, workload, seed, outdir, trace=False, check=True) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=outdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "sample.py"), workload, str(seed),
             str(int(trace)), str(int(check)), repr(spawned_at), workdir],
            cwd=root, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
        if trace and os.path.exists(os.path.join(workdir, "spans.json")):
            os.replace(os.path.join(workdir, "spans.json"),
                       os.path.join(outdir, f"spans-{workload}-seed{seed}.json"))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample timed out after {SAMPLE_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SampleError(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def problems(samples) -> list:
    out = [msg for s in samples for msg in s["failures"]]
    if len({s["digest"] for s in samples}) > 1:
        out.append("outputs differ between samples of the same inputs")
    return out


def _at_rank(items, rank):
    """Value at 1-based rank of sorted (value, weight) pairs, weight ops
    sharing the value."""
    seen = 0
    for value, w in items:
        seen += w
        if seen >= rank:
            return value
    return items[-1][0]


def median(items) -> float:
    """Median of (value, weight) pairs; the mean of the two middle ops when
    their count is even."""
    items, total = sorted(items), sum(w for _, w in items)
    return (_at_rank(items, (total + 1) // 2) + _at_rank(items, total // 2 + 1)) / 2


def tail(items):
    """The highest percentile with at least 10 ops beyond it, and its value."""
    items, total = sorted(items), sum(w for _, w in items)
    rank = max(total - 10, 1)
    return 100.0 * rank / total, _at_rank(items, rank)


def op_latencies(samples) -> list:
    """(ms, weight) per successful call, at the reference speed: the median
    over the run's samples of its calibrated latency (see sample.py)."""
    weights = samples[0]["weights"]
    return [(statistics.median(s["op_ms"][i] * s["op_scale"][i] for s in samples), w)
            for i, w in enumerate(weights) if samples[0]["op_ms"][i] is not None]


def end_to_end(samples) -> dict:
    lat = op_latencies(samples)
    ops = sum(w for _, w in lat)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "ops_per_s": (1000.0 * ops / sum(ms * w for ms, w in lat), "op/s"),
        "op_p50_ms": (median(lat), "ms"),
        "op_tail_ms": (tail(lat)[1], "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopsl2", "__init__.py")):
        print(f"error: no src/loopsl2 under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    print(f"# machine: {machine()}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, closed loop, 1 process, 1 thread")

    try:
        if args.trace:
            plain = run_sample(root, args.workload, args.seed, outdir)
            traced = run_sample(root, args.workload, args.seed, outdir, trace=True,
                                check=False)
            samples = [plain, traced]
            if not plain["ok"]:
                raise SampleError("no op succeeded: " + "; ".join(problems(samples)))
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            metrics["trace.overhead_ratio"] = (traced["timed_ref_s"] / plain["timed_ref_s"], "1")
            issues = problems(samples) + [
                f"coverage: {g} recorded no calls on {args.workload}"
                for g in traced["uncovered"]]
            counted = [plain]
        else:
            samples, start = [], time.monotonic()
            while True:
                samples.append(run_sample(root, args.workload, args.seed, outdir,
                                          check=not samples))
                measured = sum(s["timed_s"] for s in samples)
                if len(samples) >= MIN_SAMPLES and \
                        measured * (1 + 0.5 / len(samples)) > args.seconds:
                    break
                if time.monotonic() - start > RUN_CAP_S:
                    break
            if not samples[0]["ok"]:
                raise SampleError("no op succeeded: " + "; ".join(problems(samples)))
            metrics = end_to_end(samples)
            issues = problems(samples)
            counted = samples
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in counted)
    failed = sum(s["failed"] for s in counted)
    rejected = sum(s["rejected"] for s in counted)
    first = counted[0]
    timed = sum(s["timed_s"] for s in counted)
    print(f"# {len(counted)} sample(s) of {first['attempted']} ops, {first['ok']} succeeded; "
          f"{timed:.2f} s timed, {sum(s['ok'] for s in counted) / timed:.6g} op/s "
          f"uncalibrated; op_tail_ms is p{tail(op_latencies(counted))[0]:.3f} "
          f"of {first['ok']} ops; setup_s and peak_rss_mb are medians over samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {(failed + rejected) / attempted:.6g} 1 "
          f"(usage-rejected share {rejected / attempted:.6g}, other failures {failed})")
    for msg in issues:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = not issues and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running sample
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
