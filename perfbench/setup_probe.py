"""Set-up probe: import cogsep from the checkout and build one workload's inputs.

``run.py`` starts this in a fresh interpreter several times and reports the
median wall time as ``setup_s``. Usage: ``setup_probe.py WORKLOAD SEED OUTDIR``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.build(workload, seed, outdir)
