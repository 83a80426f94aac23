"""Write bench/golden.json, the outputs the correctness gate compares against.

    python3 bench/make_golden.py

Run it only at a commit whose outputs are known good: the golden file
pins the reference table byte for byte, the deep and dump energies at
full precision with their labels, and the sha256 of the matrix dump.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    workloads.prepare()
    from spans import Tracer

    golden = {}
    scratch_root = workloads.ROOT / ".bench"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        for name, workload in workloads.WORKLOADS.items():
            outcome, report = Tracer().run(workloads.run_op, workload, Path(scratch))
            if outcome.exit_code != 0:
                sys.exit(f"{name}: exit code {outcome.exit_code!r}\n{outcome.stderr}")
            entry = {"stdout": outcome.stdout, "final_n_max": report.final_n_max}
            if name != "reference":
                entry["energies"] = [lvl.energy for lvl in report.levels]
            if workload.dumps:
                entry["dump_sha256"] = hashlib.sha256(outcome.dump).hexdigest()
            golden[name] = entry
    with open(workloads.GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
