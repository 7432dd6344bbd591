"""One benchmark sample, run in a fresh interpreter by run.py.

Usage: python3 perfbench/sample.py WORKLOAD SEED TRACE CHECK SPAWNED_AT WORKDIR

With CHECK 1 the outputs are checked after the timed region; run.py asks
for that on the first sample of a run only, and requires every later
sample on the same inputs to produce identical outputs (same digest).
SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so setup_s
covers interpreter start, importing loopsl2 and generating the inputs.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

# Speed calibration.  On a shared 2-core Xeon VM the speed drifted by tens
# of percent within seconds (CPU time tracked wall time, so it was not
# descheduling).  A fixed pure-Python kernel with the library's instruction
# mix (tuple-keyed dicts, Fractions, sorting) is timed before the first
# call, after every CAL_EVERY_S of timed calls and after the last one.  Each
# op's latency is also reported scaled by REF_KERNEL_S over the mean of the
# two calibrations around it: milliseconds at the speed where the kernel
# takes REF_KERNEL_S.
CAL_EVERY_S = 0.1
REF_KERNEL_S = 0.005


def _kernel():
    acc = {}
    for i in range(1000):
        key = (i % 97, i % 89, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i % 13, 7)
    return sorted(acc.items())


def calibrate() -> float:
    """Best of two kernel timings, so one preempted run does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv) -> int:
    workload, seed, trace, check, spawned_at, workdir = argv
    seed, trace, check, spawned_at = int(seed), trace == "1", check == "1", float(spawned_at)

    import loopsl2
    import loopsl2.loopmod
    from workloads import WORKLOADS, cli_rejected

    src = os.path.realpath("src") + os.sep
    if not os.path.realpath(loopsl2.__file__).startswith(src):
        print(f"loopsl2 imported from {loopsl2.__file__}, not from {src}", file=sys.stderr)
        return 2

    plan = WORKLOADS[workload](seed)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - spawned_at

    outputs, durations = [], []
    cals, since = [(0, calibrate())], 0.0      # (calls done, kernel seconds)
    for i, call in enumerate(plan.calls):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = call.run()
        except Exception as exc:        # counted as a failed op, reported below
            out = exc
        durations.append(time.perf_counter() - t0)
        outputs.append(out)
        since += durations[-1]
        if since >= CAL_EVERY_S and i + 1 < len(plan.calls):
            cals.append((i + 1, calibrate()))
            since = 0.0
    cals.append((len(plan.calls), calibrate()))
    scale, j = [], 0
    for i in range(len(plan.calls)):
        while cals[j + 1][0] <= i:
            j += 1
        scale.append(2 * REF_KERNEL_S / (cals[j][1] + cals[j + 1][1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, uncovered = {}, []
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(loopsl2.loopmod)
        uncovered = tracer.uncovered(workload)
        tracer.write_spans(os.path.join(workdir, "spans.json"))

    # triage: raised, rejected by the argparse limitation, or to be checked
    failed, rejected, checked = [], 0, []
    for i, (call, out) in enumerate(zip(plan.calls, outputs)):
        if isinstance(out, Exception):
            failed.append((i, f"{call.label} raised {out!r}"))
            checked.append(None)
        elif call.list_args and cli_rejected(call, out):
            rejected += call.weight
            checked.append(None)
        else:
            checked.append(out)
    if check:
        failed += plan.check(checked)
    bad = {i for i, _ in failed}

    # per-op latency of each call that succeeded, None for the others
    op_ms = [1000.0 * d / c.weight if out is not None and i not in bad else None
             for i, (c, d, out) in enumerate(zip(plan.calls, durations, checked))]
    attempted = sum(c.weight for c in plan.calls)
    failed_ops = sum(plan.calls[i].weight for i in bad)
    result = {
        "setup_s": setup_s,
        "timed_s": sum(durations),
        "timed_ref_s": sum(d * k for d, k in zip(durations, scale)),   # at reference speed
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed_ops,
        "rejected": rejected,
        "ok": attempted - failed_ops - rejected,
        "op_ms": op_ms,
        "op_scale": scale,
        "weights": [c.weight for c in plan.calls],
        "digest": hashlib.sha256(plan.canonical(outputs).encode()).hexdigest(),
        "failures": [msg for _, msg in failed[:5]],
        "layers": layers,
        "uncovered": uncovered,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
