"""Stdlib benchmark of surd-sails.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
./src, nothing is installed.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it times each layer from outside and
prints the per-layer metrics instead.  Either way every output is checked
against the oracle in bench/oracle.py, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The same
object, with run details, goes to .bench_out/result-<workload>-seed<N>-trace<T>.json.
"""

import time

_T0 = time.perf_counter()

import resource  # noqa: E402

# CPU time the interpreter spent before this line; its start-up is CPU-bound,
# so adding it to the wall time since _T0 times set-up from the process start
_STARTUP_S = sum(resource.getrusage(resource.RUSAGE_SELF)[:2])

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def timed_phase(wl, inputs, seconds):
    """Run items one at a time, cycling over the inputs, until time is up.

    Returns (best time of each input in ns, 0 if it never completed; items
    completed; wall ns; failed; first output of each input; indices whose
    repeated output differed from the first).
    """
    clock = time.perf_counter_ns
    n = len(inputs)
    first = [None] * n
    differed = []
    best = array("q", [0]) * n
    failed = 0
    run_item = wl.run_item
    start = clock()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        idx = i % n
        t0 = clock()
        try:
            out = run_item(inputs[idx])
        except Exception as exc:  # a failed operation is counted, the run goes on
            t1 = clock()
            failed += 1
            print(f"item {idx} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            t1 = clock()
            if best[idx] == 0 or t1 - t0 < best[idx]:
                best[idx] = t1 - t0
            if first[idx] is None:
                first[idx] = out
            elif out != first[idx]:
                differed.append(idx)
        i += 1
        if t1 >= deadline:
            break
    return best, i, clock() - start, failed, first, differed


def end_to_end(best_ns, rss_kib, setup_s):
    """Item times are each input's best over the rounds of the run."""
    ms = sorted(t / 1e6 for t in best_ns if t)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(ms) / (sum(ms) / 1e3), "items/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "surd_sails" / "__init__.py").is_file():
        print(f"error: no surd_sails sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads
    import surd_sails.cli  # noqa: F401  (set-up compiles it once for the child processes)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.make_inputs(random.Random(args.seed))
    setup_s = time.perf_counter() - _T0 + _STARTUP_S

    details = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "inputs": len(inputs)}
    if args.trace:
        import tracing
        metrics, tracer, attempted, failed, outputs = tracing.run_traced(wl, inputs, args.seconds, args.seed)
        differed = []
        trace_file = workloads.OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        workloads.OUT_DIR.mkdir(exist_ok=True)
        trace_file.write_text(json.dumps({
            "spans": [{"name": n, "start_ns": s, "end_ns": e, "item": i} for n, s, e, i in tracer.spans],
            "total_ns": tracer.total_ns, "calls": tracer.calls, "counts": tracer.counts,
        }))
    else:
        best, attempted, wall_ns, failed, outputs, differed = timed_phase(wl, inputs, args.seconds)
        usage_self = resource.getrusage(resource.RUSAGE_SELF)
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)
        metrics = end_to_end(best, wl.peak_rss_kib(usage_self, usage_children), setup_s)
        details["wall_s"] = wall_ns / 1e9
        details["completed_per_s"] = (attempted - failed) / (wall_ns / 1e9)
        details["rounds"] = attempted / len(inputs)

    correct = True
    try:
        checks.require(not differed, f"repeated items gave different outputs: inputs {differed[:10]}")
        wl.check_all(inputs, outputs)
    except (checks.CheckFailed, ValueError, LookupError) as exc:  # malformed output fails its parse
        correct = False
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    details["checked"] = sum(out is not None for out in outputs)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    (workloads.OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "details": details}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
