"""Compare two saved outputs of spinbench/run.py.

    python3 spinbench/compare.py BEFORE.out AFTER.out

Prints each metric of both runs side by side with the after/before ratio.
Refuses (exit 2) when the two runs used different kernel backends, since
their timings are not comparable.  When both are traced runs of the same
workload and seed, the exact counts must be identical; any count that
differs is flagged as nondeterminism (exit 1).
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> tuple[dict, dict]:
    """(report, result) from the last two stdout lines of a run."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise SystemExit(f"{path}: not a spinbench output")
    return json.loads(lines[-2])["spinbench_report"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (rep_a, res_a), (rep_b, res_b) = load(argv[0]), load(argv[1])
    backend_a = rep_a["environment"]["kernel_backend"]
    backend_b = rep_b["environment"]["kernel_backend"]
    if backend_a != backend_b:
        print(f"refused: kernel backends differ ({backend_a} vs {backend_b})", file=sys.stderr)
        return 2

    for label, rep, res in (("before", rep_a, res_a), ("after", rep_b, res_b)):
        print(
            f"{label}: workload {rep['workload']} seed {rep['seed']} trace {rep['trace']} "
            f"backend {rep['environment']['kernel_backend']} "
            f"attempted {res['attempted']} failed {res['failed']}"
        )
    metrics_b = res_b["metrics"]
    for name, a in res_a["metrics"].items():
        b = metrics_b.get(name)
        if b is None:
            print(f"  {name:44s} {a['value']:>14.6g}  (missing after)")
            continue
        ratio = f"{b['value'] / a['value']:.3f}" if a["value"] else "-"
        print(f"  {name:44s} {a['value']:>14.6g} {b['value']:>14.6g}  x{ratio} {a['unit']}")

    same_work = all(rep_a[k] == rep_b[k] for k in ("workload", "seed")) and rep_a["trace"] == rep_b["trace"] == 1
    if not same_work:
        return 0
    counts_a = rep_a["per_layer"]["exact_counts"]
    counts_b = rep_b["per_layer"]["exact_counts"]
    differing = sorted(k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k))
    for k in differing:
        print(f"nondeterminism: {k} = {counts_a.get(k)} vs {counts_b.get(k)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
