"""Child process that writes one workload's inputs.

Usage: python3 inputs.py WORKLOAD SEED OUT_DIR SRC_DIR [--tiny]

Runs apart from the measuring process so that generating scenarios (and,
for warm-memory, analysing the stored alerts) never raises the measured
peak resident memory.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    workload, seed, out, src = sys.argv[1:5]
    sys.path.insert(0, src)
    import workloads

    workloads.write_inputs(workload, int(seed), Path(out), "--tiny" in sys.argv[5:])
