"""Record the sweep-square RMSE reference table.

Run from the root of a checkout, at the commit whose RMSEs are the reference:

    python3 perfbench/record_reference.py

Writes perfbench/reference_rmse.json.  The sweep's geometry is the same at
every seed, so one table serves them all; the sweep-square workload compares
every RMSE it computes against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    import run
    run.set_blas_threads()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    state = workloads.prepare_sweep(0, None, reference=False)
    gate = workloads.Gate()
    table = {}
    workloads.run_sweep_pass(state, gate, workloads.Stopwatch(), rmse_out=table)
    if gate.failures:
        print(gate.failures, file=sys.stderr)
        return 1
    document = {"tolerance": workloads.RMSE_TOLERANCE, "ranges": workloads.SWEEP_RANGES,
                "rmse": {label: float(f"{table[label]:.12g}") for label in sorted(table)}}
    workloads.REFERENCE_FILE.write_text(json.dumps(document, indent=1) + "\n")
    print(f"{len(table)} RMSEs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
