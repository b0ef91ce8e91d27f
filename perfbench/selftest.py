"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a toy size, untraced and traced, and asserts that
each metric named in ``BENCHMARK.json`` is printed with its unit and that
every answer passed its checks.  Then it injects a wrong ``hom_dim`` answer
and asserts that the run counts failed ops, among them both hom and ext
queries, and it asserts that the benchmark refuses to run in a directory
without the ghostkit sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--size", "tiny"]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(*args: str) -> tuple[dict, str]:
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            res, _ = result("--workload", workload, "--trace", str(trace))
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} ops checked")

    res, out = result("--workload", "query-stream", "--trace", "0", "--fault", "hom_dim")
    assert not res["correct"] and res["failed"] > 0, res
    failed = {kind: int(n) for kind, n in
              re.findall(r"checked (\w+) answers: \d+, \d+ not zero or empty, (\d+) failed", out)}
    assert failed["hom"] > 0 and failed["ext"] > 0, failed
    print(f"ok   injected hom_dim fault: fail_ratio {res['failed'] / res['attempted']:.3f}; "
          f"failed checks by kind {failed}")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", "fusion-sweep", "--trace", "0", cwd=Path(tmp))
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok   refuses to run without the ghostkit sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
