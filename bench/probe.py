"""Fresh-process probes of the quartosc benchmark.

    python3 bench/probe.py setup
        import quartosc.cli and finish a first LAPACK call, then exit;
        the parent times the whole process.
    python3 bench/probe.py rss WORKLOAD SCRATCH_DIR
        run one op of the workload through the correctness gate and print
        {"maxrss_kb": ..., "problems": [...]} as JSON.

The parent pins the BLAS thread count in the environment this inherits.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def setup() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import quartosc.cli  # noqa: F401
    import numpy as np
    import scipy.linalg

    # A reference-sized block (dim 324): the first call of this size pays
    # OpenBLAS's one-off warm-up, as the CLI's first eigensolve does.
    i = np.arange(324)
    scipy.linalg.eigvalsh(1.0 / (1.0 + np.abs(i[:, None] - i[None, :])))


def rss(name: str, scratch: str) -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    workloads.prepare()
    workload = workloads.WORKLOADS[name]
    outcome = workloads.run_op(workload, Path(scratch))
    problems = workloads.check(workload, outcome, workloads.load_golden())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "problems": problems}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["rss"] and len(sys.argv) == 4:
        rss(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
