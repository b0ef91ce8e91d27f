"""Write ``perfbench/golden.json``: the digest of every workload's canonical
outputs for each of the seeds 0-19, from the ghostkit sources in this
checkout.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are known to be right; a job with a
failed check is refused.  Each job runs in a fresh interpreter, as in a
benchmark run.
"""

import json
import sys

from run import HERE, WORKLOADS, Child, cli_reference

SEEDS = range(20)


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        golden[workload] = {}
        for seed in SEEDS:
            if workload == "cli-oneshot":
                _, _, digest, bad = cli_reference(seed, "full")
                if bad:
                    raise SystemExit(f"cli-oneshot seed {seed}: {bad} exited non-zero")
            else:
                rep = Child([sys.executable, str(HERE / "worker.py"), "--workload",
                             workload, "--seed", str(seed)]).report()
                if rep is None or rep["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: job failed: {rep and rep['examples']}")
                digest = rep["digest"]
            golden[workload][str(seed)] = digest
            print(workload, seed, digest, flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
