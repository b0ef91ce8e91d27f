"""The ghostkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the ghostkit sources in
``src/``.  Workloads: fusion-sweep, char-grid, query-stream, cli-oneshot
(see ``perfbench/rationale.json`` for why each exists).

Every job runs in a fresh interpreter, so the module-level caches of
ghostkit start cold, as they do for a user.  Jobs run one after another, as
many as fit in ``--seconds``.  Each op's answer is checked outside its timed
interval, and the canonical outputs of a job are hashed and compared with
``perfbench/golden.json`` when that file has the seed.

Timings are divided by the slowness that the calibration samples of
``perfbench/speed.py`` measured alongside them, so that they do not follow
the shared host's changing CPU speed; the raw medians are printed as a
note.  Peak RSS is not normalised.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics, including the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  Human-readable lines go first; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import derive
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fusion-sweep", "char-grid", "query-stream", "cli-oneshot")
# The tail percentile of each workload is fixed, so that runs with more or
# fewer jobs compare the same percentile.  It is the highest of 90, 99, 99.9
# with at least ten samples beyond it in one job (for cli-oneshot, in the
# smallest run: MIN_CLI_CYCLES cycles of 12 calls).
TAIL_PERCENTILE = {"fusion-sweep": 99.9, "char-grid": 90.0,
                   "query-stream": 99.0, "cli-oneshot": 90.0}
MIN_CLI_CYCLES = 9
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150.0
HARD_LIMIT = 170.0  # a run must end within 180 s, so children are killed by then


class Child:
    """A finished child process: exit code, output, timing and peak RSS."""

    def __init__(self, argv: list[str], timeout: float = CHILD_TIMEOUT):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            deadline = self.spawned + timeout
            while sel.get_map():
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        # wait4 rather than Popen.wait, for the child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        self.ended = time.monotonic()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.out = b"".join(chunks[proc.stdout])
        self.err = b"".join(chunks[proc.stderr])
        self.maxrss_mb = usage.ru_maxrss / 1024

    @property
    def seconds(self) -> float:
        return self.ended - self.spawned

    def report(self) -> dict | None:
        """The JSON line a worker printed last, or None if it failed."""
        lines = self.out.decode(errors="replace").strip().splitlines()
        if self.code != 0 or not lines:
            sys.stderr.write(f"child failed with exit code {self.code}:\n"
                             + self.err.decode(errors="replace")[-2000:] + "\n")
            return None
        return json.loads(lines[-1])


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def cli_reference(seed: int, size: str):
    """The calls of a cli-oneshot run, the stdout each must print (from
    ``ghostkit.cli.main`` in this process), the digest of those outputs and
    the calls that exited non-zero."""
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]
    import ghostkit.cli
    from workloads import CliOneshot

    argvs = CliOneshot(seed, size).argvs
    expected, digest, bad = [], hashlib.sha256(), []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ghostkit.cli.main(list(argv))
        expected.append(buf.getvalue().encode())
        digest.update(" ".join(argv).encode() + b"\n" + expected[-1])
        if code != 0:
            bad.append(argv)
    return argvs, expected, digest.hexdigest(), bad


def _load_golden() -> dict:
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Run:
    def __init__(self, args):
        self.args = args
        start = time.monotonic()
        self.deadline = start + args.seconds
        self.hard_deadline = start + HARD_LIMIT
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.slowness: list[float] = []  # of each untraced job or cycle
        golden = _load_golden() if args.size == "full" else {}
        self.golden = golden.get(args.workload, {}).get(str(args.seed))

    def spawn(self, argv: list[str]) -> Child:
        return Child(argv, timeout=max(1.0, self.hard_deadline - time.monotonic()))

    def worker(self, *extra: str) -> Child:
        a = self.args
        fault = ["--fault", a.fault] if a.fault else []
        return self.spawn([sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
                           "--seed", str(a.seed), "--size", a.size, *fault, *extra])

    def child_failed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.correct = False
        self.notes.append(f"{what} failed")

    def check_digest(self, digest: str) -> None:
        if self.golden is None:
            return
        if digest != self.golden:
            self.correct = False
            self.notes.append(f"digest {digest[:16]} differs from golden {self.golden[:16]}")

    def alternate(self, step, minimum: int) -> None:
        """Call ``step(traced)`` until the next call would end after the
        deadline, but at least ``minimum`` times, or until it returns None.
        With ``--trace 1`` the calls alternate untraced and traced.  ``step``
        returns how long a repeat of its call would take, in seconds."""
        took: dict[bool, float] = {}
        k = 0
        while True:
            traced = bool(self.args.trace) and k % 2 == 1
            seconds = step(traced)
            if seconds is None:
                return
            took[traced] = seconds
            k += 1
            following = bool(self.args.trace) and k % 2 == 1
            need = took.get(following, seconds)
            if k >= minimum and time.monotonic() + need > self.deadline:
                return

    def setup_samples(self) -> tuple[list[float], list[float], list[float]]:
        """Spawn set-up-only children: (set-up, interpreter start, import) times."""
        self.worker("--setup-only")  # writes the bytecode caches; not measured
        setups, interps, imports = [], [], []
        for _ in range(SETUP_SAMPLES):
            child = self.worker("--setup-only")
            rep = child.report()
            if rep is None:
                self.child_failed("set-up")
                continue
            setups.append(rep["t_ready"] - child.spawned)
            interps.append(rep["t_start"] - child.spawned)
            imports.append(rep["t_imported"] - rep["t_start"])
        return setups, interps, imports

    def note_raw(self, setups_raw, rates_raw) -> None:
        self.notes.append(
            f"raw medians: setup_s {_median(setups_raw):.6f}, ops_per_s "
            f"{_median(rates_raw):.3f}; median slowness {_median(self.slowness):.4f} "
            f"over {len(self.slowness)} jobs (the timings are divided by it)")

    # -- job workloads --------------------------------------------------------

    def jobs(self) -> dict:
        setups, interps, imports = self.setup_samples()
        plain, traced = [], []  # (child, report)
        checked = None  # report of the job whose answers were checked

        def step(use_trace: bool):
            nonlocal checked
            extra = ["--trace"] if use_trace else []
            if checked is not None:
                extra.append("--digest-only")
            child = self.worker(*extra)
            rep = child.report()
            if rep is None:
                self.child_failed("job")
                return child.seconds if plain or traced else None
            (traced if use_trace else plain).append((child, rep))
            self.attempted += rep["ops"]
            if checked is None:
                checked = rep
                self.check_digest(rep["digest"])
                self.note_coverage(rep["coverage"])
            elif rep["digest"] != checked["digest"]:
                # same inputs, different answers: none of them is trusted
                rep["failed"] = rep["ops"]
                self.correct = False
                self.notes.append("a later job's answers differ from the checked job's")
            else:
                rep["failed"] = checked["failed"]
            self.failed += rep["failed"]
            self.notes.extend(f"failed op: {e}" for e in rep["examples"])
            if not use_trace:
                setups.append(rep["t_ready"] - child.spawned)
                self.slowness.append(rep["slowness"])
            interps.append(rep["t_start"] - child.spawned)
            imports.append(rep["t_imported"] - rep["t_start"])
            # the checked job also ran the checks, which a repeat skips
            return child.seconds - rep["check_s"]

        self.alternate(step, minimum=2)

        def rates(pairs, normalise=True):
            return [rep["ops"] / rep["timed_s"] * (rep["slowness"] if normalise else 1)
                    for _, rep in pairs]

        if not self.args.trace:
            self.note_raw(setups, rates(plain, normalise=False))
            # the checked job keeps its answers for the checks; the others do not
            rss = [rep["peak_rss_kb"] / 1024 for _, rep in plain[1:]] or \
                [rep["peak_rss_kb"] / 1024 for _, rep in plain]
            return self.e2e(setups, rates(plain),
                            [sorted(x / rep["slowness"] for x in rep["latencies_ns"])
                             for _, rep in plain], rss)
        per_job = [derive(rep["layers"]) for _, rep in traced]
        layers = {name: _median([job[name] for job in per_job]) for name in per_job[0]} \
            if per_job else {}
        layers.update({
            "cli.interp_s": _median(interps),
            "cli.import_s": _median(imports),
            "cli.parser_s": 0.0,
            "cli.command_s": 0.0,
            "bench.check_s": _median([rep["check_s"] for _, rep in plain + traced]),
            "bench.slowness": _median(self.slowness),
            "bench.ops_per_s.untraced": _median(rates(plain, normalise=False)),
            "bench.ops_per_s.traced": _median(rates(traced, normalise=False)),
        })
        return layers

    def note_coverage(self, coverage) -> None:
        for kind, counts in sorted((coverage or {}).items()):
            self.notes.append(f"checked {kind} answers: {counts['answers']}, "
                              f"{counts['non-empty']} not zero or empty, "
                              f"{counts['failed']} failed")

    def e2e(self, setups, rates, latency_sets, rss) -> dict:
        """End-to-end metrics from per-job samples: each latency set is the
        sorted op latencies (ns) of one job, and every timing is the median
        over jobs, so a job that ran while the machine was slow moves it
        little.  Set-up times are divided by the run's median slowness: the
        set-up children have no op loop to sample between."""
        tail = TAIL_PERCENTILE[self.args.workload]
        latency_sets = [lat for lat in latency_sets if lat]
        sizes = sorted({len(lat) for lat in latency_sets})
        beyond = min((sum(1 for x in lat if x > percentile(lat, tail))
                      for lat in latency_sets), default=0)
        self.notes.append(f"op_tail_ms is p{tail} of {'/'.join(map(str, sizes))} ops per set, "
                          f"median over {len(latency_sets)} sets; at least {beyond} beyond it")
        return {
            "setup_s": _median(setups) / (_median(self.slowness) or 1.0),
            "ops_per_s": _median(rates),
            "op_p50_ms": _median([percentile(lat, 50) for lat in latency_sets]) / 1e6,
            "op_tail_ms": _median([percentile(lat, tail) for lat in latency_sets]) / 1e6,
            "peak_rss_mb": _median(rss),
        }

    # -- cli-oneshot ----------------------------------------------------------

    def cli(self) -> dict:
        check_start = time.perf_counter()
        argvs, expected, digest, bad = cli_reference(self.args.seed, self.args.size)
        if bad:
            self.correct = False
            self.notes.extend(f"in-process {argv} exited non-zero" for argv in bad)
        self.check_digest(digest)
        check_s = time.perf_counter() - check_start

        setups, interps, imports = self.setup_samples()
        plain, traced = [], []  # (children, slowness) of each cycle

        def step(use_trace: bool) -> float:
            head = ([sys.executable, str(HERE / "cli_probe.py")] if use_trace
                    else [sys.executable, "-m", "ghostkit.cli"])
            start = time.monotonic()
            speed = Speedometer()
            cycle = []
            for argv in argvs:
                cycle.append(self.spawn(head + argv))
                speed.catch_up()
            (traced if use_trace else plain).append((cycle, speed.slowness()))
            if not use_trace:
                self.slowness.append(speed.slowness())
            return time.monotonic() - start

        self.alternate(step, minimum=2 if self.args.trace else MIN_CLI_CYCLES)

        check_start = time.perf_counter()
        for cycle, _ in plain + traced:
            for i, child in enumerate(cycle):
                self.attempted += 1
                if child.code != 0 or child.out != expected[i]:
                    self.failed += 1
                    if self.failed <= 3:
                        self.notes.append(
                            f"cli call {argvs[i]} exited {child.code}; stdout "
                            f"{'matches' if child.out == expected[i] else 'differs'}")
        check_s += time.perf_counter() - check_start

        def rates(cycles, normalise=True):
            return [len(c) / sum(child.seconds for child in c) * (slow if normalise else 1)
                    for c, slow in cycles]

        if not self.args.trace:
            self.note_raw(setups, rates(plain, normalise=False))
            latencies = sorted(int(child.seconds / slow * 1e9)
                               for cycle, slow in plain for child in cycle)
            return self.e2e(setups, rates(plain), [latencies],
                            [child.maxrss_mb for cycle, _ in plain for child in cycle])

        probes = []
        per_cycle = []
        for cycle, _ in traced:
            total: dict = {}
            for child in cycle:
                text = child.err.decode(errors="replace").strip().splitlines()
                if not text or not text[-1].startswith("PERFBENCH "):
                    self.correct = False
                    self.notes.append("a traced cli call printed no timings")
                    continue
                rep = json.loads(text[-1][len("PERFBENCH "):])
                rep["interp_s"] = rep["t_start"] - child.spawned
                probes.append(rep)
                for key, value in rep["layers"].items():
                    total[key] = max(total.get(key, 0), value) if key == "pair_entries" \
                        else total.get(key, 0) + value
            if total:
                per_cycle.append(derive(total))
        layers = {name: _median([c[name] for c in per_cycle]) for name in per_cycle[0]} \
            if per_cycle else {}
        layers.update({
            "cli.interp_s": _median([p["interp_s"] for p in probes]),
            "cli.import_s": _median([p["import_s"] for p in probes]),
            "cli.parser_s": _median([p["parser_s"] for p in probes]),
            "cli.command_s": _median([p["command_s"] for p in probes]),
            "bench.check_s": check_s,
            "bench.slowness": _median(self.slowness),
            "bench.ops_per_s.untraced": _median(rates(plain, normalise=False)),
            "bench.ops_per_s.traced": _median(rates(traced, normalise=False)),
        })
        return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a toy size (self-test)")
    parser.add_argument("--fault", choices=("hom_dim",),
                        help="inject a wrong hom_dim answer (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "ghostkit" / "__init__.py").is_file():
        print(f"error: no ghostkit sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.fault and args.workload == "cli-oneshot":
        parser.error("--fault applies to the in-process workloads")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args)
    values = run.cli() if args.workload == "cli-oneshot" else run.jobs()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    for note in run.notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6f} {m['unit']}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'fail_ratio':36s} {ratio:>16.6f} failed/attempted")
    print(json.dumps({"correct": run.correct and run.failed == 0 and run.attempted > 0,
                      "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
