"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment of `DESIGN.md` (per-experiment
index) and prints the paper-style rows it measures, so the captured output of
``pytest benchmarks/ --benchmark-only`` doubles as the data behind
``EXPERIMENTS.md``.

The helpers are built on the ``repro.api`` front door: the "practical
profile" is expressed as a typed :class:`~repro.api.config.SolverConfig`, and
``facade_solve`` dispatches through :func:`repro.solve` with model-specific
overrides (``num_sites=``, ``delta=``, ...) resolved by the registry.
"""

from __future__ import annotations

from repro import SolverConfig, solve


def practical_config(problem, r: int, **overrides) -> SolverConfig:
    """The constant-free "practical profile" as a typed config.

    See :meth:`repro.api.config.SolverConfig.practical`: same asymptotics as
    the paper (samples of ``~ n^{1/r}``, success threshold of
    ``~ 1/n^{1/r}``), with the loose Lemma 2.2 constants replaced by
    Clarkson's sampling bound so that the sub-linear regime is visible at
    laptop scale.  Traces are disabled for benchmarking.  ``overrides`` must
    be base :class:`SolverConfig` keys (``seed=``, ``max_iterations=``, ...);
    model-specific keys (``num_sites=``, ``delta=``) go to ``facade_solve``.
    """
    return SolverConfig.practical(problem, r=r, keep_trace=False, **overrides)


def facade_solve(problem, model: str, r: int = 2, seed=0, **overrides):
    """One benchmark run through the ``repro.solve`` front door.

    ``overrides`` may contain any key of the model's config class
    (``num_sites``, ``delta``, ``num_machines``, ...); the registry validates
    them against the model at hand.
    """
    return solve(
        problem,
        model=model,
        config=practical_config(problem, r, seed=seed),
        **overrides,
    )


def emit_row(experiment: str, **fields) -> None:
    """Print one result row (shows up in bench_output.txt)."""
    payload = ", ".join(f"{key}={value}" for key, value in fields.items())
    print(f"\n[{experiment}] {payload}")


def record(benchmark, **fields) -> None:
    """Attach measured quantities to the pytest-benchmark record."""
    for key, value in fields.items():
        benchmark.extra_info[key] = value
