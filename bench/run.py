"""Run one workload of the dualmp benchmark and print its result.

Usage, from the root of the repository:

    python3 bench/run.py --workload a4-train --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory. Human-readable
lines (checks, metrics, baselines) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run. Exit code 0 means the
run completed; 2 means the program or the arguments could not be used.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import dualmp from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "dualmp" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark at {src / 'dualmp'}")
    sys.path.insert(0, str(src))
    import dualmp

    if Path(dualmp.__file__).resolve().parent != (src / "dualmp").resolve():
        raise SystemExit(f"error: imported dualmp from {dualmp.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy is imported. The model's matrices are
    # narrow (hidden width 8), so a second thread only spins: on 2 CPUs it
    # doubled CPU time per epoch without lowering wall time.
    for var in THREAD_VARIABLES:
        os.environ[var] = "1"
    import_program()

    import baselines
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    result = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    for check in result.checks:
        print(check.line())
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, auc in baselines.baseline_aucs(workload.synthetic_spec(args.seed)).items():
        print(f"baseline {name}: test AUC {auc:.4f}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
