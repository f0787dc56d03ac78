"""Layer-by-layer calls into the program's public functions.

:func:`staged_query` walks one query through the same stages
``Query.run_once`` runs — parse, translate, explore, rank, execute — but
calls each stage's public entry point itself, so the traced run can put a
span around every layer boundary.  :func:`fixpoint_profile` reads the
iteration-level counts of one execution from ``Query.explain_analyze``.
:class:`CommitProbe` times single-edge commits on a label no query reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.algebra.variables import free_variables
from repro.cost.selection import rank_plans
from repro.query.classes import classify_query
from repro.service.plan_cache import CachedPlan

from .common import (NoSpans, counter_totals, geometric_mean, median,
                     probe_seconds, quantile, speed_factor)

#: Label of the commit probe; no workload query references it.
PROBE_LABEL = "probeEdge"


@dataclass
class StageOutcome:
    result: object
    result_hit: bool | None
    plans_explored: int
    estimated_rows: int | None
    #: Simulated network delay + makespan adjustment of the execution
    #: (0 when the result cache answered).  Never part of a wall time.
    reported_adjust_s: float


def staged_query(session, text: str, spans=None, request_id: str = "", *,
                 use_result_cache: bool = False) -> StageOutcome:
    """Run ``text`` stage by stage on ``session``'s current head."""
    spans = spans if spans is not None else NoSpans()
    snapshot = session.snapshot()
    with spans.span("query.parse", request_id):
        ast = session.parse(text)
    with spans.span("query.translate", request_id):
        term = session.translate(ast, snapshot=snapshot)
    with spans.span("rewriter.explore", request_id):
        plans = session.rewriter.explore(term, snapshot.schemas)
    with spans.span("cost.rank", request_id):
        ranked = rank_plans(plans, catalog=snapshot.catalog)
    best = ranked[0]
    plan = CachedPlan(term=best.term, cost=best.cost,
                      plans_explored=len(ranked),
                      dependencies=free_variables(best.term),
                      estimated_cardinality=best.estimated_cardinality)
    with spans.span("distributed.execute", request_id) as span:
        result, hit = session.execute_plan(
            plan, None, classify_query(ast),
            use_result_cache=use_result_cache, snapshot=snapshot)
        if hit and span is not None:
            span.name = "session.result_hit"
    adjust = 0.0 if hit else session.cluster.reported_time_adjustment
    return StageOutcome(result=result, result_hit=hit,
                        plans_explored=len(ranked),
                        estimated_rows=best.estimated_cardinality,
                        reported_adjust_s=adjust)


@dataclass
class ExecutionCounts:
    """Counts summed over executions, from the public result objects."""

    reported_adjust_s: float = 0.0
    shuffles: int = 0
    broadcasts: int = 0
    tuples_shuffled: int = 0
    tuples_broadcast: int = 0
    tasks: int = 0
    global_iterations: int = 0
    local_iterations: int = 0
    index_builds: int = 0
    index_reuses: int = 0
    max_worker_s: float = 0.0
    skews: list[float] = field(default_factory=list)

    def add(self, metrics, reported_adjust_s: float = 0.0) -> None:
        self.reported_adjust_s += reported_adjust_s
        self.shuffles += metrics.shuffles
        self.broadcasts += metrics.broadcasts
        self.tuples_shuffled += metrics.tuples_shuffled
        self.tuples_broadcast += metrics.tuples_broadcast
        self.tasks += metrics.tasks_launched
        self.global_iterations += metrics.global_iterations
        self.local_iterations += metrics.local_iterations
        self.index_builds += metrics.index_builds
        self.index_reuses += metrics.index_reuses
        self.max_worker_s += metrics.max_worker_seconds
        if metrics.task_seconds_per_worker:
            self.skews.append(metrics.compute_skew())

    @property
    def comm_tuples(self) -> int:
        return self.tuples_shuffled + self.tuples_broadcast

    def layer_metrics(self) -> dict[str, float]:
        return {
            "distributed.tuples_shuffled": self.tuples_shuffled,
            "distributed.tuples_broadcast": self.tuples_broadcast,
            "distributed.shuffles": self.shuffles,
            "distributed.broadcasts": self.broadcasts,
            "distributed.reported_adjust_s": self.reported_adjust_s,
            "distributed.max_worker_s": self.max_worker_s,
            "distributed.compute_skew": (median(self.skews)
                                         if self.skews else 1.0),
            "distributed.tasks": self.tasks,
            "distributed.global_iterations": self.global_iterations,
            "distributed.local_iterations": self.local_iterations,
            "data.index_builds": self.index_builds,
            "data.index_reuses": self.index_reuses,
        }


@dataclass
class FixpointProfile:
    """Iteration-level counts read from EXPLAIN ANALYZE span trees."""

    rows_produced: int = 0
    rows_new: int = 0
    empty_seed_loop_s: float = 0.0
    iteration_s: float = 0.0

    def add(self, report) -> None:
        loops: dict[object, list] = {}
        for record in report.records:
            if record.name == "fixpoint.iteration":
                self.iteration_s += record.duration_seconds
                self.rows_produced += int(record.attribute("produced", 0))
                loops.setdefault(record.parent_id, []).append(record)
            elif (record.name == "fixpoint.local_loop"
                  and record.attribute("seed") == 0):
                self.empty_seed_loop_s += record.duration_seconds
        for iterations in loops.values():
            iterations.sort(key=lambda record: record.attribute("iteration"))
            first, last = iterations[0], iterations[-1]
            self.rows_new += max(int(last.attribute("total", 0))
                                 - int(first.attribute("delta", 0)), 0)

    def layer_metrics(self) -> dict[str, float]:
        return {
            "algebra.rows_produced": self.rows_produced,
            "algebra.rows_new": self.rows_new,
            "algebra.useful_ratio": (self.rows_new / self.rows_produced
                                     if self.rows_produced else 1.0),
            "algebra.iteration_s": self.iteration_s,
            "distributed.empty_seed_loop_s": self.empty_seed_loop_s,
        }


def fixpoint_profile(queries) -> FixpointProfile:
    """EXPLAIN ANALYZE every ``(session, text)`` pair (caches off) and sum
    the loop counts."""
    profile = FixpointProfile()
    for session, text in queries:
        profile.add(session.ucrpq(text).explain_analyze(
            use_plan_cache=False, use_result_cache=False))
    return profile


def kernel_counters(registry_snapshot) -> dict[str, float]:
    return {
        "algebra.kernel_compiles": counter_totals(
            registry_snapshot, "repro_kernel_compiles_total"),
        "algebra.kernel_reuses": counter_totals(
            registry_snapshot, "repro_kernel_reuses_total"),
        "data.columnar_encode_ms": counter_totals(
            registry_snapshot, "repro_columnar_encode_ms_total"),
    }


def counter_delta(before: dict[str, float], after: dict[str, float]):
    return {name: after[name] - before[name] for name in after}


#: Fewest probe commits a run makes.
PROBE_COMMITS = 200
#: Consecutive probe commits that share one host-speed factor.
COMMIT_BLOCK = 40


def commit_figures(samples) -> dict[str, float]:
    """``commit_p50_ms`` and ``commit_p90_ms`` of commit times in seconds
    (already at the reference speed)."""
    return {"commit_p50_ms": median(samples) * 1e3,
            "commit_p90_ms": quantile(samples, 0.9) * 1e3}


class CommitProbe:
    """Single-edge commits on :data:`PROBE_LABEL`, spread over a run.

    ``commit(adding, pair)`` performs one commit.  Even steps add an edge
    and odd steps remove it again, so after :meth:`finish` the probe has
    left the data as it found it.  Callers interleave :meth:`step` with
    their workload, outside its timed regions, so the samples cover the
    whole run rather than one moment of it.  A calibration probe follows
    each commit; every :data:`COMMIT_BLOCK` commits share the factor of
    their probes (see ``common.Pace``).
    """

    def __init__(self, commit):
        self.commit = commit
        self.samples: list[float] = []
        self.probes: list[float] = []

    def step(self) -> None:
        index = len(self.samples)
        pair = (f"probe{index // 2}", f"probe{index // 2 + 1}")
        started = time.perf_counter()
        self.commit(index % 2 == 0, pair)
        self.samples.append(time.perf_counter() - started)
        self.probes.append(probe_seconds())

    def finish(self) -> dict[str, float]:
        while len(self.samples) < PROBE_COMMITS or len(self.samples) % 2:
            self.step()
        scaled = []
        for first in range(0, len(self.samples), COMMIT_BLOCK):
            factor = speed_factor(self.probes[first:first + COMMIT_BLOCK])
            scaled += [sample * factor for sample
                       in self.samples[first:first + COMMIT_BLOCK]]
        return commit_figures(scaled)


def session_commit(session):
    """The ``commit`` callable of :class:`CommitProbe` for an in-process
    session."""
    def commit(adding: bool, pair) -> None:
        if adding:
            session.add_edges(PROBE_LABEL, [pair])
        else:
            session.remove_edges(PROBE_LABEL, [pair])

    return commit


@dataclass
class StageTotals:
    """What the traced run sums over :func:`staged_query` calls."""

    counts: ExecutionCounts = field(default_factory=ExecutionCounts)
    plans_explored: int = 0
    drifts: list[float] = field(default_factory=list)

    def add(self, outcome: StageOutcome) -> None:
        result = outcome.result
        self.plans_explored += outcome.plans_explored
        self.drifts.append(max(len(result.relation), 1)
                           / max(outcome.estimated_rows or 0, 1))
        if not outcome.result_hit:
            self.counts.add(result.metrics, outcome.reported_adjust_s)

    def layer_metrics(self, spans) -> dict[str, float]:
        """Stage times, plan counts and drift, plus every layer's self time."""
        own = spans.self_times()
        metrics = {
            "query.parse_s": own.get("query.parse", 0.0),
            "query.translate_s": own.get("query.translate", 0.0),
            "rewriter.explore_s": own.get("rewriter.explore", 0.0),
            "rewriter.plans_explored": self.plans_explored,
            "cost.rank_s": own.get("cost.rank", 0.0),
            "cost.drift": geometric_mean(self.drifts),
            "distributed.execute_s": own.get("distributed.execute", 0.0),
        }
        metrics.update(self.counts.layer_metrics())
        for layer, seconds in spans.layer_self_times().items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics
