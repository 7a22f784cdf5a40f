"""The four closed-loop workloads.

Each workload is one process running a fixed op sequence that the workload
seed determines; the program sees only the generated inputs.  Instances come
from ``_build_problem`` in ``benchmarks/run_suite.py`` (the perf suite's
LP, MEB, SVM and QP generators over ``repro.workloads``).

Why these four (see README.md for the measured shares):

* ``stream-large`` — streaming solves of 2.5·10^5 x 8 instances, taken in turn
  so that each op finds the cache filled with another instance, so the
  kernel sweeps dominate;
* ``mpc-sim`` — MPC solves over ~224 simulated machines, so per-node fabric
  overhead in the in-process transport dominates;
* ``edit-process`` — a coordinator session on a supervised 2-worker process
  pool whose ops edit the instance between reads (cold solve, satisfied add,
  cutting add, removal), so process dispatch, shared-memory export and warm
  re-solves dominate;
* ``serve-mixed`` — one closed-loop HTTP client against an in-process server,
  so wire encoding and request handling dominate.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import check

FAMILIES = ("lp", "meb", "svm", "qp")

#: Set-up (session, pool or server start plus one warm-up op) is repeated at
#: least ``SETUP_MIN_REPEATS`` times and until ``SETUP_BUDGET_S`` seconds of
#: it have run (at most ``SETUP_MAX_REPEATS``); ``setup_s`` is the median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0

#: The warm-up op solves an instance built from this fixed seed, so set-up
#: does the same work whatever the workload seed.
WARMUP_SEED = 424242


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] >> 1)


def build_problem(family: str, n: int, seed: int, d: int) -> Any:
    from run_suite import _build_problem

    return _build_problem(family, n, seed, d=d)


def practical_config(problems: list, r: int, seed: int) -> Any:
    """The practical profile of the instance needing the largest sample.

    One config serves every family of a workload, so ops pass no per-family
    overrides (the session fast path requires none).
    """
    from repro import SolverConfig

    configs = [
        SolverConfig.practical(p, r=r, keep_trace=False, seed=seed) for p in problems
    ]
    return max(configs, key=lambda c: c.sample_size)


def constraint_arrays(problem: Any) -> tuple:
    """The arrays that hold one instance's constraints, in family order."""
    from repro.problems import (
        ConvexQuadraticProgram,
        LinearProgram,
        LinearSVM,
        MinimumEnclosingBall,
    )

    if isinstance(problem, LinearProgram):
        return (problem.a, problem.b)
    if isinstance(problem, MinimumEnclosingBall):
        return (problem.points,)
    if isinstance(problem, LinearSVM):
        return (problem.points, problem.labels)
    if isinstance(problem, ConvexQuadraticProgram):
        return (problem.g_matrix, problem.h_vector)
    raise TypeError(type(problem).__name__)


def with_constraints(base: Any, arrays: tuple) -> Any:
    """A new instance with ``base``'s objective and the given constraint arrays."""
    from repro.problems import (
        ConvexQuadraticProgram,
        LinearProgram,
        LinearSVM,
        MinimumEnclosingBall,
    )

    if isinstance(base, LinearProgram):
        return LinearProgram(
            base.c, arrays[0], arrays[1], box_bound=base.box_bound,
            solver=base.solver, lexicographic=base.lexicographic,
            tolerance=base.tolerance,
        )
    if isinstance(base, MinimumEnclosingBall):
        return MinimumEnclosingBall(arrays[0], tolerance=base.tolerance)
    if isinstance(base, LinearSVM):
        return LinearSVM(arrays[0], arrays[1], tolerance=base.tolerance)
    if isinstance(base, ConvexQuadraticProgram):
        return ConvexQuadraticProgram(
            base.q_matrix, base.q_vector, arrays[0], arrays[1], tolerance=base.tolerance
        )
    raise TypeError(type(base).__name__)


def nbytes(problem: Any) -> int:
    return int(sum(a.nbytes for a in constraint_arrays(problem)))


@dataclass
class Op:
    """One timed op and what it returned."""

    op_id: int
    kind: str
    instance: Any
    start: float = 0.0
    end: float = 0.0
    result: Any = None
    error: Optional[str] = None


class Workload:
    """One workload: a ``Session`` of ``model`` unless a subclass says otherwise."""

    name = ""
    model = ""
    n = 0
    d = 0
    r = 2
    #: Calibration units run after each op (see ``machine.Calibration``):
    #: 5-15% of an op's time.
    calibration_units = 1

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.warmup: Any = None

    def prepare(self) -> None:
        """Generate the inputs, their references and ``self.config`` (not timed)."""
        raise NotImplementedError

    def session_options(self) -> dict:
        """Model options of the workload's session, beyond ``self.config``."""
        return {}

    def make_warmup(self) -> None:
        """A fresh warm-up instance for the next :meth:`start` (not timed)."""
        self.warmup = build_problem(FAMILIES[0], self.n, WARMUP_SEED, self.d)

    def start(self) -> None:
        """Start the program and run the warm-up op (timed as ``setup_s``)."""
        from repro import Session

        self.session = Session(self.model, config=self.config, **self.session_options())
        self.session.solve(self.warmup, seed=WARMUP_SEED)
        self.warmup = None

    def stop(self) -> None:
        """Shut the program down."""
        self.session.close()

    def run(self, deadline: float, tracer: Any, between: Callable[[], None]) -> list[Op]:
        """Ops until ``deadline``, calling ``between`` after each (not timed)."""
        raise NotImplementedError

    def verify(self, ops: list[Op]) -> list[str]:
        """One failure message per op that failed or answered wrongly.

        Wrong answers are recorded as the op's ``error``.
        """
        raise NotImplementedError

    def health(self) -> dict[str, int]:
        """Restarts and degrades the program reported during the run."""
        health = self.session.transport_health()
        return {
            "restarts": int(health.get("total_restarts", 0)),
            "degrades": int(bool(health.get("degraded", False))),
        }

    def working_set_bytes(self) -> int:
        raise NotImplementedError


def session_instances(workload: "SessionSolveWorkload") -> tuple[dict, dict]:
    """``copies`` instances per family and their references.

    Instance ``i`` is of family ``FAMILIES[i % 4]``, so ops taking the
    instances in turn take the families in turn.
    """
    problems = {
        i: build_problem(
            FAMILIES[i % len(FAMILIES)], workload.n, derive_seed(workload.seed, i), workload.d
        )
        for i in range(workload.copies * len(FAMILIES))
    }
    refs = {
        i: check.reference(p, workload.r, derive_seed(workload.seed, 100 + i))
        for i, p in problems.items()
    }
    # Let lazily built per-instance kernel caches (fp32 mirrors) fill before
    # timing, with one sweep on the default backend.
    for i, p in problems.items():
        p.violation_mask(refs[i].witness, p.all_indices())
    return problems, refs


def _verify_against(ops: list[Op], problems: dict, refs: dict) -> list[str]:
    """Check each op; a wrong answer becomes the op's error."""
    failures = []
    for op in ops:
        if op.error is None:
            op.error = check.op_failure(problems[op.instance], refs[op.instance], op.result)
        if op.error is not None:
            failures.append(f"op {op.op_id} ({op.kind}): {op.error}")
    return failures


class SessionSolveWorkload(Workload):
    """``Session.solve`` of the four families in turn, one client, in-process."""

    options: dict = {}
    #: Instances per family.  A run's mean then covers several instances of
    #: each family, so it moves less with how hard one seed's instances are.
    copies = 1

    def prepare(self) -> None:
        self.problems, self.refs = session_instances(self)
        self.config = practical_config(
            list(self.problems.values()), self.r, derive_seed(self.seed, 200)
        )

    def session_options(self) -> dict:
        return self.options

    def run(self, deadline: float, tracer: Any, between: Callable[[], None]) -> list[Op]:
        ops: list[Op] = []
        for op_id in itertools.count():
            # Whole rounds of the four families keep the op mix fixed.
            if op_id % len(FAMILIES) == 0 and time.perf_counter() >= deadline:
                break
            instance = op_id % len(self.problems)
            op = Op(op_id, FAMILIES[instance % len(FAMILIES)], instance)
            if tracer is not None:
                tracer.set_op(op_id)
            op.start = time.perf_counter()
            try:
                op.result = self.solve(op_id, instance, tracer)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                op.error = repr(exc)
            op.end = time.perf_counter()
            ops.append(op)
            between()
        if tracer is not None:
            tracer.set_op(None)
        return ops

    def solve(self, op_id: int, instance: int, tracer: Any) -> Any:
        """One op: solve instance ``instance`` and return the program's result."""
        return self.session.solve(
            self.problems[instance], seed=derive_seed(self.seed, 300, op_id)
        )

    def verify(self, ops: list[Op]) -> list[str]:
        return _verify_against(ops, self.problems, self.refs)

    def working_set_bytes(self) -> int:
        return sum(nbytes(p) for p in self.problems.values())


class StreamLarge(SessionSolveWorkload):
    name = "stream-large"
    model = "streaming"
    n = 250_000
    d = 8
    r = 4
    calibration_units = 2
    copies = 4


class MpcSim(SessionSolveWorkload):
    name = "mpc-sim"
    model = "mpc"
    n = 50_000
    d = 3
    r = 2
    copies = 4
    options = {"delta": 0.5}


# ---------------------------------------------------------------------- #
# edit-process
# ---------------------------------------------------------------------- #

#: Op kinds of one edit cycle, in order.
EDIT_KINDS = ("cold", "add-satisfied", "add-cutting", "remove")


@dataclass
class EditEntry:
    """One base instance and the edits a cycle applies to it."""

    base: Any
    satisfied: tuple  # implied constraints: convex combinations of existing ones
    cutting: tuple  # constraints the base optimum violates
    removed: np.ndarray  # indices into the instance after both adds
    refs: tuple  # references after stage 0 (= stage 1), 2 and 3

    def stage_arrays(self, stage: int) -> tuple:
        arrays = constraint_arrays(self.base)
        if stage >= 1:
            arrays = tuple(np.concatenate(p) for p in zip(arrays, self.satisfied))
        if stage >= 2:
            arrays = tuple(np.concatenate(p) for p in zip(arrays, self.cutting))
        if stage >= 3:
            keep = np.setdiff1d(np.arange(arrays[0].shape[0]), self.removed)
            arrays = tuple(a[keep] for a in arrays)
        return arrays

    def reference(self, stage: int) -> check.Reference:
        return self.refs[max(0, stage - 1)]


def _block(arrays: tuple) -> Any:
    """The family-native block form ``resolve_with(added=...)`` takes."""
    return arrays[0] if len(arrays) == 1 else tuple(arrays)


def _satisfied_block(problem: Any, rng: np.random.Generator, size: int) -> tuple:
    """Convex combinations of same-label constraint pairs: implied, never cutting."""
    arrays = constraint_arrays(problem)
    n = arrays[0].shape[0]
    first = rng.integers(n, size=size)
    if _is_svm(problem):
        labels = arrays[1]
        second = np.empty(size, dtype=int)
        for label in (-1.0, 1.0):
            pool = np.flatnonzero(labels == label)
            chosen = labels[first] == label
            second[chosen] = rng.choice(pool, size=int(chosen.sum()))
        lam = rng.uniform(size=(size, 1))
        points = lam * arrays[0][first] + (1 - lam) * arrays[0][second]
        return (points, labels[first].copy())
    second = rng.integers(n, size=size)
    lam = rng.uniform(size=size)
    out = []
    for a in arrays:
        weight = lam.reshape((-1,) + (1,) * (a.ndim - 1))
        out.append(weight * a[first] + (1 - weight) * a[second])
    return tuple(out)


def _is_svm(problem: Any) -> bool:
    from repro.problems import LinearSVM

    return isinstance(problem, LinearSVM)


def _cutting_block(problem: Any, ref: check.Reference, rng: np.random.Generator, size: int) -> tuple:
    """Constraints the reference optimum violates by a clear margin, feasible together."""
    from repro.problems import ConvexQuadraticProgram, LinearProgram, MinimumEnclosingBall

    d = problem.dimension
    noise = rng.normal(size=(size, d))
    if isinstance(problem, MinimumEnclosingBall):
        center, radius = np.asarray(ref.witness.center), float(ref.witness.radius)
        directions = noise / np.linalg.norm(noise, axis=1, keepdims=True)
        return (center + 1.05 * radius * directions,)
    if _is_svm(problem):
        u = np.asarray(ref.witness, dtype=float)
        unit = u / np.linalg.norm(u)
        noise -= np.outer(noise @ unit, unit)
        noise *= 0.5 * np.median(np.linalg.norm(problem.points, axis=1)) / np.sqrt(d)
        labels = rng.choice([-1.0, 1.0], size=size)
        # y <u, x> = 0.5 < 1: violated, yet still separable by 2u.
        points = labels[:, None] * (0.5 * u / (u @ u)) + noise
        return (points, labels)
    x = np.asarray(ref.witness, dtype=float)
    if isinstance(problem, LinearProgram):
        # a.x <= b with a ~ -c: forces c.x >= c.x* + margin.
        rows = -(problem.c + 0.05 * np.linalg.norm(problem.c) * noise)
        return (rows, rows @ x - 0.05 * np.linalg.norm(rows, axis=1))
    if isinstance(problem, ConvexQuadraticProgram):
        # g.x >= h with g ~ the objective gradient at x*.
        grad = problem.q_matrix @ x + problem.q_vector
        rows = grad + 0.05 * np.linalg.norm(grad) * noise
        return (rows, rows @ x + 0.02 * np.linalg.norm(rows, axis=1))
    raise TypeError(type(problem).__name__)


class EditProcess(Workload):
    name = "edit-process"
    model = "coordinator"
    n = 200_000
    d = 3
    r = 2
    #: Base instances per family; cycles walk them with the families in turn.
    per_family = 2
    satisfied_rows = 256
    cutting_rows = 16
    removed_share = 0.005

    def prepare(self) -> None:
        self.entries: list[EditEntry] = []
        for copy in range(self.per_family):
            for f, family in enumerate(FAMILIES):
                key = len(self.entries)
                base = build_problem(family, self.n, derive_seed(self.seed, copy, f), self.d)
                rng = np.random.default_rng(derive_seed(self.seed, 500, key))
                ref0 = check.reference(base, self.r, derive_seed(self.seed, 600, key))
                satisfied = _satisfied_block(base, rng, self.satisfied_rows)
                cutting = _cutting_block(base, ref0, rng, self.cutting_rows)
                start = self.n + self.satisfied_rows
                removed = np.union1d(
                    np.arange(start, start + self.cutting_rows),
                    rng.choice(self.n, size=int(self.removed_share * self.n), replace=False),
                )
                entry = EditEntry(base, satisfied, cutting, removed, (ref0,))
                refs = [ref0]
                for stage in (2, 3):
                    edited = with_constraints(base, entry.stage_arrays(stage))
                    refs.append(
                        check.reference(edited, self.r, derive_seed(self.seed, 700 + stage, key))
                    )
                if check.matches(refs[1].objective, refs[0].objective):
                    raise RuntimeError(f"{family} cutting block did not cut the optimum")
                entry.refs = tuple(refs)
                self.entries.append(entry)
        self.config = practical_config(
            [e.base for e in self.entries], self.r, derive_seed(self.seed, 200)
        )

    def session_options(self) -> dict:
        from repro import TransportConfig

        # A session-private supervised pool: its boot is part of set-up, and
        # its health reports any silent restart or degrade.
        transport = TransportConfig(
            kind="process", max_workers=2, reuse_pool=False, supervised=True
        )
        return {"num_sites": 4, "transport": transport}

    def run(self, deadline: float, tracer: Any, between: Callable[[], None]) -> list[Op]:
        ops: list[Op] = []
        op_ids = itertools.count()
        for cycle in itertools.count():
            if time.perf_counter() >= deadline:
                break
            key = cycle % len(self.entries)
            entry = self.entries[key]
            # A fresh instance object with fresh buffers: the cold solve
            # exports it through shared memory again.
            fresh = with_constraints(
                entry.base, tuple(a.copy() for a in constraint_arrays(entry.base))
            )
            for stage, kind in enumerate(EDIT_KINDS):
                op = Op(next(op_ids), kind, (key, stage))
                if tracer is not None:
                    tracer.set_op(op.op_id)
                op.start = time.perf_counter()
                try:
                    if stage == 0:
                        op.result = self.session.solve(
                            fresh, seed=derive_seed(self.seed, 300, cycle)
                        )
                    elif stage == 1:
                        op.result = self.session.resolve_with(added=_block(entry.satisfied))
                    elif stage == 2:
                        op.result = self.session.resolve_with(added=_block(entry.cutting))
                    else:
                        op.result = self.session.resolve_with(removed=entry.removed)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    op.error = repr(exc)
                op.end = time.perf_counter()
                ops.append(op)
                between()
        if tracer is not None:
            tracer.set_op(None)
        return ops

    def verify(self, ops: list[Op]) -> list[str]:
        failures = []
        by_instance: dict[tuple, list[Op]] = {}
        for op in ops:
            by_instance.setdefault(op.instance, []).append(op)
        for (key, stage), group in sorted(by_instance.items()):
            entry = self.entries[key]
            problem = with_constraints(entry.base, entry.stage_arrays(stage))
            failures += _verify_against(
                group, {(key, stage): problem}, {(key, stage): entry.reference(stage)}
            )
        return failures

    def working_set_bytes(self) -> int:
        return sum(nbytes(e.base) for e in self.entries)


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #


class ServeMixed(SessionSolveWorkload):
    name = "serve-mixed"
    model = "streaming"
    n = 10_000
    d = 3
    r = 2
    copies = 8
    service_workers = 2

    def prepare(self) -> None:
        self.problems, self.refs = session_instances(self)

    def start(self) -> None:
        from repro.server import ReproServer, ServiceClient

        # Server defaults, as a client that sends only its problem gets them.
        self.server = ReproServer(
            model=self.model, max_workers=self.service_workers
        ).start()
        # One client in a closed loop: a second one would keep both vCPUs of
        # a small machine busy, so the run would take the steal of both.
        self.client = ServiceClient(self.server.url, timeout=60.0)
        self.request(self.warmup)
        self.warmup = None

    def stop(self) -> None:
        self.server.close()

    def solve(self, op_id: int, instance: int, tracer: Any) -> Any:
        return self.request(self.problems[instance], op_id, tracer)

    def request(self, problem: Any, op_id: Optional[int] = None, tracer: Any = None) -> Any:
        """Submit ``problem``, wait for its ticket to finish, fetch the result."""
        ticket = self.client.submit(problem)
        if tracer is not None:
            tracer.alias(("rid", ticket.id), op_id)
        # The SSE stream wakes on the terminal event; the result is then one
        # GET away (the default 50 ms poll would round latencies up to its
        # period).
        for _ in self.client.events(ticket.id, timeout=60.0):
            pass
        return self.client.result(ticket.id, timeout=60.0, poll_interval=0.002)

    def health(self) -> dict[str, int]:
        stats = self.server.stats()
        restarts = sum(
            int(s.get("transport_retries", 0)) + int(s.get("checkpoint_resumes", 0))
            for s in stats.values()
        )
        return {"restarts": restarts, "degrades": 0}


WORKLOADS = {w.name: w for w in (StreamLarge, MpcSim, EditProcess, ServeMixed)}
