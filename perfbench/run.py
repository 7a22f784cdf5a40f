"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload stream-large --seed 1 --seconds 20 --trace 0

Set-up (session, pool or server start plus one warm-up op) runs several
times; then ops run in a closed loop until ``--seconds`` have passed (the op
in flight, or the round it belongs to, completes).  Calibration units run
before each set-up and after each op, untimed by the metrics; the time
metrics are scaled by how much slower than the reference machine the units
ran (``machine.Calibration``).  Every op is checked against a reference
after the timed window.

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced window.  A table with units goes to
standard error, a full record to ``perfbench/out/``, and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

The exit code is non-zero when any op failed or answered wrongly, a
shared-memory segment leaked, or the program restarted or degraded a worker.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import statistics
import sys
import time

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: End-to-end metrics in BENCHMARK.json, with units.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "rounds_per_op": "count",
    "model_space_bits": "bits",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics in BENCHMARK.json, with units.
PER_LAYER = {
    "kernels.sweep_s": "s/op",
    "kernels.count_matrix_s": "s/op",
    "kernels.gumbel_top_k_s": "s/op",
    "kernels.sweep_calls": "count/op",
    "kernels.rows_touched": "rows/op",
    "kernels.bytes_computed": "bytes/op",
    "kernels.select_calls": "count/op",
    "fabric.topology.messages": "count/op",
    "fabric.topology.measure_s": "s/op",
    "fabric.topology.run_all_s": "s/op",
    "fabric.transport.node_tasks": "count/op",
    "fabric.transport.run_nodes_s": "s/op",
    "fabric.transport.init_shared_s": "s/op",
    "fabric.shm.exports": "count/op",
    "fabric.shm.leaked_segments": "count",
    "fabric.comm_bits_per_op": "bits/op",
    "api.session.solve_s": "s/op",
    "api.session.resolve_s": "s/op",
    "api.session.extend_s": "s/op",
    "api.session.fast_path_ratio": "ratio",
    "api.session.non_cutting_adds": "count",
    "api.service.queue_wait_s": "s/op",
    "api.service.tickets": "count",
    "core.engine.iterations_per_op": "count/op",
    "core.engine.iterations": "count",
    "core.engine.success_ratio": "ratio",
    "core.engine.oracle_calls_per_op": "count/op",
    "core.engine.basis_cache_hit_ratio": "ratio",
    "core.engine.basis_cache_lookups": "count",
    "core.engine.draw_s": "s/op",
    "core.engine.measure_s": "s/op",
    "core.engine.boost_s": "s/op",
    "problems.solve_subset_calls": "count/op",
    "problems.solve_subset_s": "s/op",
    "server.requests_per_op": "count/op",
    "server.encode_s": "s/op",
    "server.decode_s": "s/op",
    "server.overhead_s": "s/op",
    "resilience.restarts": "count",
    "resilience.replays": "count",
    "resilience.degrades": "count",
    "bench.traced_throughput_ops_s": "ops/s",
    "bench.error_rate": "ratio",
    "bench.kernel_share": "ratio",
    "bench.design_share": "ratio",
    "machine.nproc": "count",
    "machine.llc_bytes": "bytes",
    "machine.working_set_bytes": "bytes",
    "machine.steal_ratio": "ratio",
    "machine.iowait_ratio": "ratio",
    "machine.calibration_slowdown": "ratio",
    "machine.calibration_background_share": "ratio",
}

#: What the traced run should show dominating each workload's op time
#: (the share is printed as ``bench.design_share``; above 0.5 confirms it).
DESIGN = {
    "stream-large": "kernels.* spans",
    "mpc-sim": "fabric.transport.run_nodes",
    "edit-process": "fabric.transport.run_nodes + problems.solve_subset",
    "serve-mixed": "op latency outside api.session.run_cold (server + queue)",
}


def _design_share(workload: str, metrics: dict, ops: int) -> float:
    latency = metrics["bench.op_latency_sum_s"]
    if not latency:
        return 0.0
    if workload == "stream-large":
        return metrics["bench.kernel_share"]
    if workload == "mpc-sim":
        covered = metrics["fabric.transport.run_nodes_s"]
    elif workload == "edit-process":
        covered = metrics["fabric.transport.run_nodes_s"] + metrics["problems.solve_subset_s"]
    else:
        covered = metrics["server.overhead_s"]
    return covered * ops / latency


#: Calibration units run before each set-up.
SETUP_CALIBRATION_UNITS = 4

#: ``peak_rss_mb`` is the peak over the first this many ops.
MEMORY_OPS = 16

#: Below this many ops, ``latency_tail_s`` is reported but flagged as not a
#: tail: the highest percentile with ten ops beyond it is then under p75.
TAIL_MIN_OPS = 40


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it.

    Returns ``(value, percentile, ops)``; with ten ops or fewer no such
    percentile exists and the maximum is reported at percentile 100.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def model_space_bits(model: str, result) -> int:
    if model == "streaming":
        return int(result.resources.space_peak_bits)
    if model == "mpc":
        return int(result.resources.max_machine_load_bits)
    return int(result.communication.max_load_bits)


def _stop_resource_tracker() -> None:
    """End the helper process shared memory starts, and wait for it.

    Left alone it would outlive this process by a moment.  ``main`` calls it
    after the leak check, when every segment is already unlinked.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    suite = os.path.join(ROOT, "benchmarks")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")) or not os.path.isfile(
        os.path.join(suite, "run_suite.py")
    ):
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, suite]

    from layers import instrument, layer_metrics
    from tracer import MissingHook, Tracer
    from workloads import SETUP_BUDGET_S, SETUP_MAX_REPEATS, SETUP_MIN_REPEATS, WORKLOADS

    from repro.fabric.shm import leaked_segments

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        # Fail before any work when a function the trace wraps has moved.
        probe = Tracer()
        try:
            instrument(probe, [])
        except MissingHook as missing:
            print(f"perfbench: cannot trace: the program has no {missing}; "
                  "update perfbench/layers.py", file=sys.stderr)
            return 2
        finally:
            probe.restore()
    workload = WORKLOADS[args.workload](args.seed)
    segments_before = set(leaked_segments())
    started = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - started

    setup_calibration = machine.Calibration()
    setup_times: list[float] = []
    while True:
        workload.make_warmup()
        setup_calibration.run(SETUP_CALIBRATION_UNITS)
        started = time.perf_counter()
        workload.start()
        setup_times.append(time.perf_counter() - started)
        if len(setup_times) >= SETUP_MAX_REPEATS or (
            len(setup_times) >= SETUP_MIN_REPEATS and sum(setup_times) >= SETUP_BUDGET_S
        ):
            break
        workload.stop()
    # The benchmark's own inputs and references stay alive for the whole run;
    # keep them out of the program's garbage-collection passes.
    gc.collect()
    gc.freeze()

    tracer = Tracer() if args.trace else None
    service_tickets: list = []
    if tracer is not None:
        instrument(tracer, service_tickets)
    sampler = machine.MemorySampler().start()
    calibration = machine.Calibration()
    ticks_before = machine.cpu_ticks()
    window_start = time.perf_counter()
    ops_done = itertools.count(1)

    def between_ops() -> None:
        # Memory is sampled over the first ops only (see MEMORY_OPS); the
        # sampler is stopped before it could slow the units that follow.
        if next(ops_done) == MEMORY_OPS:
            sampler.stop()
        calibration.run(workload.calibration_units)

    try:
        ops = workload.run(window_start + args.seconds, tracer, between_ops)
    finally:
        if tracer is not None:
            tracer.restore()
    window = time.perf_counter() - window_start
    ticks = machine.tick_seconds(ticks_before, machine.cpu_ticks())
    sampler.stop()
    # Memory over a fixed amount of work: a faster program runs more ops in
    # the window, and a session holds what it exports until it closes.
    peak_rss_mb = sampler.peak_mb()
    health = workload.health()
    workload.stop()
    leaked = sorted(set(leaked_segments()) - segments_before)

    started = time.perf_counter()
    failures = workload.verify(ops)
    verify_s = time.perf_counter() - started
    wrong = len(failures)
    faults = len(leaked) + health["restarts"] + health["degrades"]
    failed = wrong + faults
    attempted = len(ops)
    good = [op for op in ops if op.error is None]
    results = [op.result for op in good]

    # Times at the reference machine's speed: wall times over the slowdown
    # the calibration units measured around them.  Throughput is correct ops
    # per second the program was busy, so the units' own time is left out.
    slowdown = calibration.slowdown()
    setup_slowdown = setup_calibration.slowdown()
    wall_latencies = [op.end - op.start for op in ops]
    latencies = [latency / slowdown for latency in wall_latencies]
    tail, tail_pct, tail_ops = tail_latency(latencies)
    throughput = len(good) / sum(latencies)
    wall = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(good) / sum(wall_latencies),
        "latency_p50_s": statistics.median(wall_latencies),
        "latency_tail_s": tail_latency(wall_latencies)[0],
    }

    end_to_end = {
        "setup_s": wall["setup_s"] / setup_slowdown,
        "throughput_ops_s": throughput,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "rounds_per_op": statistics.fmean(int(r.communication.rounds) for r in results)
        if results else 0.0,
        "model_space_bits": float(
            max((model_space_bits(workload.model, r) for r in results), default=0)
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    # Zero on healthy runs, so carried in attempted/failed and the per-layer
    # set rather than as end-to-end metrics (see README.md).
    error_rate = failed / attempted if attempted else 1.0
    comm_bits = (
        statistics.fmean(int(r.communication.total_bits) for r in results) if results else 0.0
    )

    per_layer: dict[str, float] = {}
    span_totals: dict = {}
    if tracer is not None:
        per_layer = layer_metrics(tracer, ops, service_tickets)
        per_layer["bench.design_share"] = _design_share(args.workload, per_layer, attempted)
        span_totals = tracer.totals()
    per_layer.update({
        "fabric.shm.leaked_segments": float(len(leaked)),
        "fabric.comm_bits_per_op": comm_bits,
        "resilience.restarts": float(health["restarts"]),
        "resilience.replays": tracer.counts.get("resilience.replays", 0.0) if tracer else 0.0,
        "resilience.degrades": float(health["degrades"]),
        "bench.traced_throughput_ops_s": throughput,
        "bench.error_rate": error_rate,
        "machine.nproc": float(machine.nproc()),
        "machine.llc_bytes": float(machine.llc_bytes()),
        "machine.working_set_bytes": float(workload.working_set_bytes()),
        # Shares of the window's CPU time, so they compare across run lengths.
        "machine.steal_ratio": ticks["steal"] / (window * machine.nproc()),
        "machine.iowait_ratio": ticks["iowait"] / (window * machine.nproc()),
        "machine.calibration_slowdown": slowdown,
        "machine.calibration_background_share": calibration.background_share(),
    })
    per_layer.setdefault("fabric.shm.exports", 0.0)

    # Human-readable table on stderr: all nine end-to-end figures.
    table = dict(end_to_end, error_rate=error_rate, comm_bits_per_op=comm_bits)
    units = dict(END_TO_END, error_rate="ratio", comm_bits_per_op="bits")
    print(f"== {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops in {window:.2f} s, {failed} failed", file=sys.stderr)
    for name, value in table.items():
        print(f"   {name:<20} {value:>14.6g} {units[name]}", file=sys.stderr)
    tail_note = "" if tail_ops >= TAIL_MIN_OPS else f" (NOT a tail: under {TAIL_MIN_OPS} ops)"
    print(f"   latency_tail_s is p{tail_pct:.1f} of {tail_ops} ops{tail_note}; setup runs "
          f"{', '.join(f'{s:.3f}' for s in setup_times)} s", file=sys.stderr)
    print(f"   times above at reference speed; wall: "
          f"{', '.join(f'{name} {value:.6g}' for name, value in wall.items())}", file=sys.stderr)
    print(f"   calibration slowdown {slowdown:.4f} over {len(calibration.seconds)} units "
          f"(set-up {setup_slowdown:.4f}), background CPU while they ran "
          f"{calibration.background_share():.1%}; steal {ticks['steal']:.2f} s, iowait "
          f"{ticks['iowait']:.2f} s on {machine.nproc()} cpus; inputs and references "
          f"{prepare_s:.2f} s, checks {verify_s:.2f} s", file=sys.stderr)
    if tracer is not None:
        share = per_layer["bench.design_share"]
        verdict = "confirmed" if share > 0.5 else "NOT confirmed"
        print(f"   design: {DESIGN[args.workload]} = {share:.1%} of op time ({verdict})",
              file=sys.stderr)
        for name in sorted(PER_LAYER):
            print(f"   {name:<36} {per_layer.get(name, 0.0):>14.6g} {PER_LAYER[name]}",
                  file=sys.stderr)
    for failure in failures[:10]:
        print(f"   WRONG {failure}", file=sys.stderr)
    if leaked:
        print(f"   LEAKED shared-memory segments: {leaked}", file=sys.stderr)
    if health["restarts"] or health["degrades"]:
        print(f"   UNEXPECTED recoveries: {health}", file=sys.stderr)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "end_to_end": table, "per_layer": per_layer,
            "setup_runs_s": setup_times,
            "wall": wall,
            "calibration": {"slowdown": slowdown, "setup_slowdown": setup_slowdown,
                            "units_s": calibration.seconds,
                            "setup_units_s": setup_calibration.seconds,
                            "background_share": calibration.background_share()},
            "latency_tail": {"percentile": tail_pct, "ops": tail_ops,
                             "resolved": tail_ops >= TAIL_MIN_OPS},
            "steal_s": ticks["steal"], "iowait_s": ticks["iowait"],
            "ops": [[op.kind, round(op.start - window_start, 6), round(op.end - window_start, 6),
                     op.error is None,
                     int(op.result.communication.rounds) if op.error is None else None]
                    for op in ops],
            "failures": failures, "leaked_segments": leaked, "health": health,
            "span_totals": span_totals,
            "layer_inclusive_s": tracer.layer_inclusive() if tracer else {},
        }, handle, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.json.gz", window_start)

    _stop_resource_tracker()
    chosen = PER_LAYER if args.trace else END_TO_END
    source = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(source.get(name, 0.0)), "unit": unit}
            for name, unit in chosen.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
