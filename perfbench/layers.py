"""Which public functions of which layer the traced run wraps, and under what name.

Span names are ``<module path>.<call>``; the per-layer metrics in
``BENCHMARK.json`` are built from them in :func:`layer_metrics`.
"""

from __future__ import annotations

import sys
from typing import Any

from tracer import MissingHook, Tracer


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _defining(root: type, attr: str) -> list[type]:
    """``root`` and its loaded subclasses that define ``attr`` themselves.

    Raises :class:`MissingHook` when none does.
    """
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    if not found:
        raise MissingHook(f"{root.__name__}.{attr} (or a subclass)")
    return found


def instrument(tracer: Tracer, service_tickets: list) -> None:
    """Install every wrapper; ``tracer.restore()`` removes them again.

    Raises :class:`MissingHook` when the program no longer defines a
    function listed here; the caller then restores what was installed.

    ``service_tickets`` collects the ``SolverService`` tickets submitted
    while tracing, whose queue waits become ``api.service.queue_wait_s``.
    """
    import repro.algorithms.coordinator_clarkson  # noqa: F401  (strategy classes)
    import repro.algorithms.mpc_clarkson  # noqa: F401
    import repro.algorithms.streaming_clarkson  # noqa: F401
    import repro.api.session as api_session
    import repro.kernels as kernels
    import repro.server.app as server_app
    import repro.server.client as server_client
    from repro.api.service import SolverService
    from repro.core.engine import ClarksonEngine, SamplingStrategy, WeightSubstrate
    from repro.core.lptype import LPTypeProblem
    from repro.fabric import shm
    from repro.fabric.topology import Topology
    from repro.fabric.transport import Transport
    from repro.resilience.supervisor import SupervisedProcessPoolTransport

    add = tracer.add

    # kernels ------------------------------------------------------------ #
    def rows_hook(sel_position: int):
        def hook(args, kwargs, _result):
            pack = args[1]
            rows = kernels.selector_length(
                _arg(args, kwargs, sel_position, "sel"), pack.rows.shape[0]
            )
            row_bytes = pack.rows.shape[1] * pack.rows.itemsize
            row_bytes += pack.rhs.itemsize + pack.limit.itemsize
            add("kernels.rows_touched", rows)
            add("kernels.bytes_computed", rows * row_bytes)
        return hook

    sweep_rows = rows_hook(3)

    def sweep_hook(args, kwargs, result):
        add("kernels.sweep_calls")
        sweep_rows(args, kwargs, result)

    backend_classes = {type(kernels.get_backend(n)) for n in kernels.available_backends()}
    for cls in backend_classes:
        tracer.span(cls, "sweep", "kernels.sweep", sweep_hook)
        tracer.span(cls, "count_matrix", "kernels.count_matrix", rows_hook(4))
        tracer.span(cls, "gumbel_top_k", "kernels.gumbel_top_k")
        tracer.span(cls, "scores", "kernels.scores")
        tracer.span(cls, "solve_many", "kernels.solve_many")
    for module in {sys.modules[cls.__module__] for cls in backend_classes}:
        tracer.count(module, "select", lambda a, k, r: add("kernels.select_calls"))

    # fabric ------------------------------------------------------------- #
    tracer.span(
        Topology, "measure", "fabric.topology.measure",
        lambda a, k, r: add("fabric.topology.messages"),
    )
    tracer.span(Topology, "run_all", "fabric.topology.run_all")
    for cls in _defining(Transport, "run_nodes"):
        tracer.span(
            cls, "run_nodes", "fabric.transport.run_nodes",
            lambda a, k, r: add("fabric.transport.node_tasks", len(_arg(a, k, 2, "node_ids"))),
        )
    for cls in _defining(Transport, "init_shared"):
        tracer.span(cls, "init_shared", "fabric.transport.init_shared")
    tracer.span(
        shm.SharedPackStore, "export", "fabric.shm.export",
        lambda a, k, r: add("fabric.shm.exports"),
    )
    tracer.count(
        SupervisedProcessPoolTransport, "_replay_locked",
        lambda a, k, r: add("resilience.replays"),
    )

    # engine and problems ------------------------------------------------ #
    tracer.span(ClarksonEngine, "run", "core.engine.run")
    for root, attr, name in (
        (SamplingStrategy, "draw", "core.engine.draw"),
        (WeightSubstrate, "measure", "core.engine.measure"),
        (WeightSubstrate, "boost", "core.engine.boost"),
    ):
        for cls in _defining(root, attr):
            tracer.span(cls, attr, name)
    for cls in _defining(LPTypeProblem, "solve_subset"):
        tracer.span(
            cls, "solve_subset", "problems.solve_subset",
            lambda a, k, r: add("problems.solve_subset_calls"),
        )

    # api ---------------------------------------------------------------- #
    tracer.span(api_session.Session, "solve", "api.session.solve")
    tracer.span(api_session.Session, "resolve_with", "api.session.resolve")
    tracer.span(api_session.Session, "run_cold", "api.session.run_cold")
    tracer.span(api_session, "extend_problem", "api.session.extend")
    tracer.count(
        SolverService, "submit", lambda a, k, ticket: service_tickets.append(ticket)
    )

    def traced_run_ticket(run_ticket):
        def wrapper(self, ticket, *args, **kwargs):
            # Service worker threads cannot name the op they serve; the
            # ticket links them to it (see traced_server_submit below).
            tracer.set_op(("ticket", id(ticket)))
            try:
                return run_ticket(self, ticket, *args, **kwargs)
            finally:
                tracer.set_op(None)
        return wrapper

    tracer.install(SolverService, "_run_ticket", traced_run_ticket)

    # server ------------------------------------------------------------- #
    tracer.span(server_client, "encode_problem", "server.encode")
    tracer.span(server_app, "decode_problem", "server.decode")
    for attr in ("submit", "events", "ticket"):
        tracer.count(
            server_client.ServiceClient, attr, lambda a, k, r: add("server.requests")
        )

    def traced_server_submit(server_submit):
        def wrapper(self, tenant, payload):
            placeholder = ("handler", object())
            tracer.set_op(placeholder)
            try:
                record = server_submit(self, tenant, payload)
            finally:
                tracer.set_op(None)
            tracer.alias(placeholder, ("rid", record.id))
            tracer.alias(("ticket", id(record.ticket)), ("rid", record.id))
            return record
        return wrapper

    tracer.install(server_app.ReproServer, "submit", traced_server_submit)


#: Span totals reported per op (inclusive seconds of the outermost calls).
SPAN_METRICS = {
    "kernels.sweep_s": "kernels.sweep",
    "kernels.count_matrix_s": "kernels.count_matrix",
    "kernels.gumbel_top_k_s": "kernels.gumbel_top_k",
    "fabric.topology.measure_s": "fabric.topology.measure",
    "fabric.topology.run_all_s": "fabric.topology.run_all",
    "fabric.transport.run_nodes_s": "fabric.transport.run_nodes",
    "fabric.transport.init_shared_s": "fabric.transport.init_shared",
    "api.session.solve_s": "api.session.solve",
    "api.session.resolve_s": "api.session.resolve",
    "api.session.extend_s": "api.session.extend",
    "core.engine.draw_s": "core.engine.draw",
    "core.engine.measure_s": "core.engine.measure",
    "core.engine.boost_s": "core.engine.boost",
    "problems.solve_subset_s": "problems.solve_subset",
    "server.encode_s": "server.encode",
    "server.decode_s": "server.decode",
}

#: Counters reported per op.
COUNT_METRICS = {
    "kernels.sweep_calls": "kernels.sweep_calls",
    "kernels.rows_touched": "kernels.rows_touched",
    "kernels.bytes_computed": "kernels.bytes_computed",
    "kernels.select_calls": "kernels.select_calls",
    "fabric.topology.messages": "fabric.topology.messages",
    "fabric.transport.node_tasks": "fabric.transport.node_tasks",
    "problems.solve_subset_calls": "problems.solve_subset_calls",
    "server.requests_per_op": "server.requests",
    "fabric.shm.exports": "fabric.shm.exports",
}


def layer_metrics(tracer: Tracer, ops: list, service_tickets: list) -> dict[str, float]:
    """Per-layer metrics of one traced window (``value`` per op unless a ratio)."""
    count = max(1, len(ops))
    totals = tracer.totals()

    def inclusive(name: str) -> float:
        return totals.get(name, {}).get("inclusive_s", 0.0)

    metrics: dict[str, float] = {}
    for metric, name in SPAN_METRICS.items():
        metrics[metric] = inclusive(name) / count
    for metric, name in COUNT_METRICS.items():
        metrics[metric] = tracer.counts.get(name, 0.0) / count

    # Ratios carry their bases as separate count metrics.
    results = [op.result for op in ops if op.result is not None]
    iterations = sum(int(r.iterations) for r in results)
    successful = sum(int(r.successful_iterations) for r in results)
    hits = sum(int(r.resources.basis_cache_hits) for r in results)
    misses = sum(int(r.resources.basis_cache_misses) for r in results)
    non_cutting = [op for op in ops if op.kind == "add-satisfied"]
    fast = sum(
        1 for op in non_cutting
        if op.result is not None and op.result.warm is not None and op.result.warm.fast_path
    )
    metrics["core.engine.iterations_per_op"] = iterations / count
    metrics["core.engine.iterations"] = float(iterations)
    metrics["core.engine.success_ratio"] = successful / iterations if iterations else 0.0
    metrics["core.engine.oracle_calls_per_op"] = (
        sum(int(r.resources.oracle_calls) for r in results) / count
    )
    metrics["core.engine.basis_cache_lookups"] = float(hits + misses)
    metrics["core.engine.basis_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["api.session.non_cutting_adds"] = float(len(non_cutting))
    metrics["api.session.fast_path_ratio"] = fast / len(non_cutting) if non_cutting else 0.0

    latency = sum(op.end - op.start for op in ops)
    metrics["server.overhead_s"] = (
        (latency - inclusive("api.session.run_cold")) / count
        if service_tickets else 0.0
    )
    waits = [t.wait_s() for t in service_tickets if t.wait_s() is not None]
    metrics["api.service.queue_wait_s"] = sum(waits) / count
    metrics["api.service.tickets"] = float(len(service_tickets))

    layers = tracer.layer_inclusive()
    metrics["bench.kernel_share"] = layers.get("kernels", 0.0) / latency if latency else 0.0
    metrics["bench.op_latency_sum_s"] = latency
    return metrics
