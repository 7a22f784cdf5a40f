"""Run every workload untraced and traced, and print one report.

From the repository root::

    python3 perfbench/report.py --seed 1 --seconds 20

For each workload this prints the nine end-to-end metrics with units (the
seven in ``BENCHMARK.json`` plus ``error_rate`` and ``comm_bits_per_op``),
the tracing overhead (untraced over traced ``throughput_ops_s``), and the
share of op time the traced run attributes to the layer the workload is
meant to stress.  The report is also written to ``perfbench/out/report.json``.
The exit code is non-zero when any run failed its checks: a wrong answer, a
leaked shared-memory segment, or a silent restart or degrade.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream-large", "mpc-sim", "edit-process", "serve-mixed")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(path):
        os.remove(path)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    if not os.path.exists(path):
        return done.returncode or 1, {}
    with open(path) as handle:
        return done.returncode, json.load(handle)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from run import DESIGN, END_TO_END

    units = dict(END_TO_END, error_rate="ratio", comm_bits_per_op="bits")
    report, status = {}, 0
    for workload in WORKLOADS:
        code_plain, plain = _run(workload, args.seed, args.seconds, 0)
        code_traced, traced = _run(workload, args.seed, args.seconds, 1)
        status = status or code_plain or code_traced
        if not plain or not traced:
            report[workload] = {"error": "run produced no record"}
            continue
        untraced_tput = plain["end_to_end"]["throughput_ops_s"]
        traced_tput = traced["end_to_end"]["throughput_ops_s"]
        report[workload] = {
            "end_to_end": plain["end_to_end"],
            "tracing_overhead": untraced_tput / traced_tput if traced_tput else None,
            "design": DESIGN[workload],
            "design_share": traced["per_layer"].get("bench.design_share"),
            "failures": plain["failures"] + traced["failures"],
        }
    print(f"seed {args.seed}, {args.seconds:g} s per run")
    for workload, entry in report.items():
        print(f"\n{workload}")
        if "error" in entry:
            print(f"  {entry['error']}")
            continue
        for name, value in entry["end_to_end"].items():
            print(f"  {name:<20} {value:>14.6g} {units[name]}")
        print(f"  tracing overhead     {entry['tracing_overhead']:>14.4g} x (untraced/traced ops/s)")
        share = entry["design_share"]
        print(f"  design share         {share:>14.1%} {entry['design']}"
              f" ({'confirmed' if share > 0.5 else 'not confirmed'})")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "report.json"), "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": report}, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
