"""Print the peak resident memory and wall time of one correlated study.

    python tools/peak_rss.py SRC_DIR N

runs, in a fresh interpreter on the package in SRC_DIR (a checkout's ``src``
directory), ``run_corr`` on the criterion-09 grid at series length N:
lognormal, exponential covariances with tau 10 and 100, 4 replications,
seed 0, on every CPU this process may run on.  It prints two lines,

    peak_rss_mb <the child's peak resident set, MiB>
    wall_s <seconds run_corr took>

The benchmark's ``corr_mc`` workload runs this study at N = 2^16 only; this
script measures what synthesis costs at larger N, as in

    python tools/peak_rss.py A/src 1048576
    python tools/peak_rss.py B/src 4194304

Each side needs about 1.5 GB at N = 2^22.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

_CHILD = """\
import sys, time
from momentgate import dependence as dep, montecarlo as mc, tail_models as tm
cc = mc.CorrelatedConfig(covs=(dep.ExponentialCov(10.0),
                               dep.ExponentialCov(100.0)))
cfg = mc.ExperimentConfig(models=(tm.log_normal(),),
                          n_grid=(int(sys.argv[1]),), reps=4, seed=0,
                          correlated=cc)
start = time.perf_counter()
mc.run_corr(cfg)
print(time.perf_counter() - start)
"""


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))
    run = subprocess.run([sys.executable, "-c", _CHILD, argv[1]], env=env,
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        return 1
    # ru_maxrss is in KiB on Linux; the one child waited for is the study
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak_rss_mb {rss:.1f}")
    print(f"wall_s {float(run.stdout):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
