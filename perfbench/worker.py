"""One benchmark job in a fresh interpreter; prints its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--size full|tiny]
        [--setup-only] [--digest-only] [--trace] [--fault hom_dim]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  Timestamps are ``time.monotonic()`` so the parent can subtract
its own spawn time from them.

Each op is timed on its own.  Right after its interval, outside it, the
answer is put in canonical form and hashed, so a job keeps no answers
unless it checks them: ``--digest-only`` skips the checks, and the parent
uses it for the later jobs of a run, whose inputs are the same as the first
job's, and compares their digests with the checked one.  ``peak_rss_kb`` is
read right after the op loop, before any check.

An untraced job takes calibration samples (``speed.py``) between its ops,
outside the timed intervals, and reports their slowness.  A traced job
writes its spans to ``.perfbench/trace-<workload>.json``.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Speedometer  # noqa: E402
SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def _inject_fault(name: str) -> None:
    # A deliberately wrong answer, to show that the checks catch it.
    from ghostkit import homalg
    from layers import replace_everywhere

    if name != "hom_dim":
        raise SystemExit(f"unknown fault {name!r}")
    original = homalg.hom_dim
    replace_everywhere(original, lambda *a, **k: original(*a, **k) + 1)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--digest-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fault")
    args = parser.parse_args()

    if args.workload == "cli-oneshot":
        import ghostkit.cli  # noqa: F401
    else:
        import ghostkit  # noqa: F401
    t_imported = time.monotonic()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    t_ready = time.monotonic()
    result = {"t_start": T_START, "t_imported": t_imported, "t_ready": t_ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer, fusion_cache_sizes

        tracer = Tracer()
        tracer.install()
        cache_before = fusion_cache_sizes()
    if args.fault:
        _inject_fault(args.fault)

    clock = time.perf_counter_ns
    speed = None if args.trace else Speedometer()
    latencies, kept = [], []
    digest = hashlib.sha256()
    for i, (fn, fargs) in enumerate(workload.ops()):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = fn(*fargs)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        if tracer is not None:
            tracer.op = None  # the benchmark's own work stays out of the spans
        text = (f"raised {type(out).__name__}: {out}" if isinstance(out, Exception)
                else workload.canonical(fn, fargs, out))
        digest.update(text.encode() + b"\n")
        if not args.digest_only:
            kept.append((fn, fargs, out))
        if speed is not None:
            speed.catch_up()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        cache_after = fusion_cache_sizes()

    check_start = clock()
    failed, examples = 0, []
    for fn, fargs, out in kept:
        if isinstance(out, Exception):
            ok = False
        else:
            try:
                ok = workload.check(fn, fargs, out)
            except Exception as exc:  # a check that raises fails its op
                ok, out = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            if len(examples) < 3:
                examples.append(f"{fn.__name__}{fargs}: {out!r}"[:300])
    check_s = (clock() - check_start) / 1e9

    result.update(ops=len(latencies), failed=failed, examples=examples,
                  timed_s=sum(latencies) / 1e9, check_s=check_s, digest=digest.hexdigest(),
                  latencies_ns=latencies, peak_rss_kb=peak_rss_kb,
                  coverage=getattr(workload, "coverage", None))
    if speed is not None:
        result["slowness"] = speed.slowness()
    if tracer is not None:
        from layers import raw_numbers

        result["layers"] = raw_numbers(tracer, cache_before, cache_after)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"trace-{args.workload}.json")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
