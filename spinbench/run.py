"""spincouple benchmark: one command, every metric, every answer checked.

Run from the root of a checkout:

    python3 spinbench/run.py --workload uniform --seed 1 --seconds 55 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else.
The workload seed is a benchmark argument; spincouple sees only the inputs
generated from it.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run, in which every round is executed twice on identical inputs,
once traced and once not, so that the tracing overhead is measured too.
The line before it is the full report (environment, sample counts, tail
percentiles, failures), which ``spinbench/compare.py`` reads.

Exit status: 0 with a result line; 2, and no result line, when the
checkout has no spincouple sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".spinbench-work"
SETUP_REPEATS = 9
SETUP_ARGV = ["-m", "spincouple", "check", "--correlations", "0,0,0,0"]
# Rounds whose counts a traced run reports; they must repeat bit for bit.
COUNT_ROUNDS = 2


def _import_spincouple():
    """Import spincouple from this checkout's src/, refusing any other copy."""
    if not (SRC / "spincouple" / "__init__.py").is_file():
        print(f"spinbench: no spincouple sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import spincouple

    if Path(spincouple.__file__).resolve().parent != (SRC / "spincouple").resolve():
        print(f"spinbench: spincouple imported from {spincouple.__file__}", file=sys.stderr)
        sys.exit(2)
    return spincouple


def environment(spincouple) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "kernel_backend": spincouple.kernel_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def measure_setup(speed) -> tuple[list[float], list[float], list[str]]:
    """Seconds, raw and normalized, for a fresh interpreter to answer one
    ``check``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans, failures = [], []
    for _ in range(SETUP_REPEATS):
        proc, t0, t1 = speed.call(lambda: subprocess.run(
            [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env, capture_output=True, text=True
        ))
        spans.append((t0, t1))
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["all_satisfied"] is True
        except (ValueError, KeyError):
            ok = False
        if not ok:
            failures.append(f"setup: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
    raw = [t1 - t0 for t0, t1 in spans]
    return raw, [speed.normalize(t0, t1) for t0, t1 in spans], failures


def run_rounds(workload_name, seed, seconds, documents, client, tracer):
    """The timed closed loop; returns (rounds, plain samples, traced samples).

    A new round starts only while three quarters of a mean round fit in
    the remaining time, so runs end close to ``seconds`` with whole rounds.  A
    traced run runs each round twice, alternating which execution goes
    first, and always completes COUNT_ROUNDS rounds.
    """
    import workload

    plain, traced = workload.Samples(), workload.Samples()
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if r >= (COUNT_ROUNDS if tracer else 1) and elapsed + 0.75 * elapsed / r > seconds:
            break
        ops = workload.plan_round(workload_name, seed, r, documents)
        order = (False, True) if r % 2 == 0 else (True, False)
        for with_trace in order if tracer else (False,):
            if not with_trace:
                client.run_round(ops, plain, False)
                continue
            tracer.counting = r < COUNT_ROUNDS
            tracer.install()
            try:
                client.run_round(ops, traced, True)
            finally:
                tracer.uninstall()
                tracer.counting = False
        r += 1
    return r, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["uniform", "signaling"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spincouple = _import_spincouple()
    import workload
    from tracing import Tracer, per_layer

    env = environment(spincouple)
    speed = workload.SpeedTrack()
    WORKDIR.mkdir(exist_ok=True)
    docdir = Path(tempfile.mkdtemp(prefix="docs-", dir=WORKDIR))
    try:
        setup_raw, setup_norm, setup_failures = measure_setup(speed)
        documents = workload.prepare_documents(args.workload, args.seed, docdir)
        tracer = Tracer() if args.trace else None
        client = workload.Client(speed, tracer)
        # warm-up outside the timed loop: first calls pay for lazy set-up
        warm_ops = [op for op in workload.plan_round(args.workload, args.seed, 0, documents)
                    if op[1] in ("identity", "check", "conditionalize")]
        client.run_round(warm_ops, workload.Samples(), False)
        start = time.perf_counter()
        rounds, plain, traced = run_rounds(
            args.workload, args.seed, args.seconds, documents, client, tracer
        )
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    client.attempted += SETUP_REPEATS
    failures = setup_failures + client.failures
    raw, norm = plain.raw(), plain.normalized(speed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "wall_s": wall,
        "rounds": rounds,
        "setup_s_raw": setup_raw,
        "setup_s_normalized": setup_norm,
        "calibration_block_p50_s": statistics.median(speed.blocks),
        "samples": workload.sample_summary(norm, raw),
        "attempted": client.attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "unverified_infeasible": client.unverified,
    }
    if args.trace:
        traced_raw, traced_norm = traced.raw(), traced.normalized(speed)
        factor = sum(map(sum, traced_norm.values())) / sum(map(sum, traced_raw.values()))
        traced_parts = workload.part_seconds(traced_norm)
        plain_parts = workload.part_seconds(norm)
        overhead = {p: traced_parts[p] / plain_parts[p] - 1 for p in workload.PARTS}
        metrics, detail = per_layer(tracer, rounds, factor, overhead)
        report["per_layer"] = detail
        report["traced_end_to_end"] = workload.end_to_end(traced_norm, traced.decisions)
        report["untraced_end_to_end"] = workload.end_to_end(norm, plain.decisions)
    else:
        values = workload.end_to_end(norm, plain.decisions)
        values["setup_s"] = statistics.median(setup_norm)
        report["raw_end_to_end"] = workload.end_to_end(raw, plain.decisions)
        report["raw_end_to_end"]["setup_s"] = statistics.median(setup_raw)
        units = dict(workload.E2E_UNITS, setup_s="s")
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        report["unbounded_end_to_end"] = {k: v for k, v in values.items() if k not in units}
    print(json.dumps({"spinbench_report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": client.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
