"""Check that two checkouts of dualmp train and score to the same bits.

Usage:

    python3 tools/same_bits.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. Each is run in a
subprocess of its own that imports ``dualmp`` from its ``src/`` and the
workloads from its ``bench/harness.WORKLOADS``, read-only. For every
workload at seed 3 (the edge-heavy graph loaded back from text, as the
benchmark does) and every ablation, it fits with the workload's epoch
budget and prints the SHA-256 of the fit log, the trained parameters, the
whole-graph probabilities and the test split's report. It does so with
the helper thread as shipped, forced off and forced on
(``model.OVERLAP_MIN_ROWS`` set to ``sys.maxsize`` or 0), one BLAS thread
throughout. It prints the parent's digests, names each run whose digests
differ, and exits 1 if any does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 3
MODES = {"shipped": None, "off": sys.maxsize, "on": 0}  # OVERLAP_MIN_ROWS, or None to leave it
PARTS = ("log", "params", "probs", "report")
CHILD = "import sys, same_bits; same_bits.print_digests(sys.argv[1])"


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def print_digests(root: str) -> None:
    """In a checkout's subprocess: one line per mode, workload and ablation, its four digests."""
    import harness
    from dualmp import data, model, training

    src = Path(root, "src", "dualmp").resolve()
    if Path(model.__file__).resolve().parent != src:
        raise SystemExit(f"error: imported dualmp from {model.__file__}, not from {src}")
    shipped = model.OVERLAP_MIN_ROWS
    with tempfile.TemporaryDirectory() as tmp:
        for workload in harness.WORKLOADS.values():
            graph = data.generate_synthetic(workload.synthetic_spec(SEED))
            if workload.load_from_text:
                graph = data.load_dataset(data.write_dataset(graph, Path(tmp, workload.name)))
            for mode, min_rows in MODES.items():
                model.OVERLAP_MIN_ROWS = shipped if min_rows is None else min_rows
                for ablation in model.ABLATIONS:
                    config = dataclasses.replace(workload.train_config(SEED), ablation=ablation)
                    result = training.fit(graph, config)
                    trained = result.model
                    params = sorted(trained.params.items())
                    report = training.evaluate_split(trained, trained.graph.split.test)
                    digests = (
                        _sha(json.dumps(result.log, sort_keys=True, default=str).encode()),
                        _sha(*(chunk for name, p in params for chunk in (name.encode(), p.data.tobytes()))),
                        _sha(trained.forward(training=False).probs.data.tobytes()),
                        _sha(json.dumps(dataclasses.asdict(report), sort_keys=True, default=str).encode()),
                    )
                    fields = " ".join(f"{part}={digest}" for part, digest in zip(PARTS, digests))
                    print(f"{mode} {workload.name} {ablation} {fields}", flush=True)


def run_checkout(root: Path) -> dict[str, str]:
    """The digest lines of one checkout, keyed by mode, workload and ablation."""
    path = os.pathsep.join(str(folder) for folder in (root / "src", root / "bench", Path(__file__).parent))
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as cwd:
        command = [sys.executable, "-c", CHILD, str(root)]
        done = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: the run of {root} failed:\n{done.stderr}")
    runs = {}
    for line in done.stdout.splitlines():
        mode, workload, ablation, fields = line.split(" ", 3)
        runs[f"{mode} {workload} {ablation}"] = fields
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_bits.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (run_checkout(Path(root).resolve()) for root in argv)
    runs = [*parent, *(run for run in change if run not in parent)]
    differ = 0
    for run in runs:
        print(f"{run} {parent.get(run, '(no run)')}")
        if change.get(run) != parent.get(run):
            differ += 1
            print(f"  DIFFERS in CHANGE: {change.get(run, '(no run)')}")
    print(f"{differ} of {len(runs)} runs differ" if differ else f"same bits on all {len(runs)} runs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
