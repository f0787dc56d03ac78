"""``analytic-cold``: ad-hoc analytic queries with every cache off.

One pass runs the 25 Yago queries over ``yago_like_graph`` and a Uniprot
subset (the quick subset, which holds Q28 and Q47, plus Q38 and Q44) over
``uniprot_graph``, each through ``Query.run_once`` with the plan and
result caches off.  The workload stays cold by design: an ad-hoc analytic
query pays planning on every run, so there is no warm-up to exclude.

The Yago half is planning-bound (explore + rank dominate, Q24 most), the
Uniprot half execution-bound (Q47's fixpoint, Q28's empty-seed loops).
"""

from __future__ import annotations

import time

from repro import Session, get_registry
from repro.datasets import uniprot_graph, yago_like_graph
from repro.errors import ReproError
from repro.workloads import UNIPROT_QUICK_SUBSET, uniprot_queries, yago_queries

from .common import (Checks, Pace, SpanRecorder, median, peak_rss_mb,
                     quantile, row_digest, same_rows, timed_at_reference)
from .stages import (CommitProbe, ExecutionCounts, StageTotals,
                     counter_delta, fixpoint_profile, kernel_counters,
                     session_commit, staged_query)

YAGO_SCALE = 120
UNIPROT_EDGES = 2_000
UNIPROT_SUBSET = UNIPROT_QUICK_SUBSET + ("Q38", "Q44")
#: Set-ups before the first pass and after every pass; ``setup_s`` is
#: the median of them all.
SETUP_REPEATS = 5


class Setup:
    """Generated graphs, one cold session per graph, the query list.

    ``writer`` is one more session over the Yago graph, for the commit
    probe only, so probe commits never touch the snapshots queries read.
    """

    def __init__(self, seed: int):
        yago = yago_like_graph(YAGO_SCALE, seed=seed)
        uniprot = uniprot_graph(UNIPROT_EDGES, seed=seed + 1)
        self.sessions = [
            Session(graph, enable_plan_cache=False, enable_result_cache=False)
            for graph in (yago, uniprot)]
        self.writer = Session(yago)
        self.queries = (
            [(self.sessions[0], query) for query in yago_queries()]
            + [(self.sessions[1], query)
               for query in uniprot_queries(uniprot, UNIPROT_SUBSET)])

    def close(self) -> None:
        for session in (*self.sessions, self.writer):
            session.close()


def timed_setup(seed: int, samples: list[float]) -> Setup:
    return timed_at_reference(lambda: Setup(seed), samples)


def build(seed: int, samples: list[float]) -> Setup:
    """Set up :data:`SETUP_REPEATS` times and keep the last set-up."""
    for _ in range(SETUP_REPEATS - 1):
        timed_setup(seed, samples).close()
    return timed_setup(seed, samples)


def references(setup: Setup) -> list:
    """Centralized reference results (outside every timed region)."""
    return [session.evaluate_centralized(query.as_query(session).term)
            for session, query in setup.queries]


def one_pass(setup: Setup, checks: Checks, probe: CommitProbe) -> dict:
    """Run every query once through ``run_once`` and time each.

    Calibration probes and one probe commit follow each query, outside
    its timed region; ``walls`` are at the reference speed of the pass's
    probes (see ``common.Pace``) and ``raw`` is their measured sum.  Each
    query's wall time and its simulated adjustment are kept apart;
    ``reported`` is their sum.  ``digests`` (None where a query failed)
    are checked against the references by :func:`check_passes`.
    """
    walls, adjusts, digests = [], [], []
    counts = ExecutionCounts()
    pace = Pace()
    for session, query in setup.queries:
        started = time.perf_counter()
        try:
            result, _, _ = query.as_query(session).run_once(
                use_plan_cache=False, use_result_cache=False)
        except ReproError as error:
            walls.append(time.perf_counter() - started)
            adjusts.append(0.0)
            digests.append(None)
            checks.record(False, f"{query.qid}: {error}")
            pace.follow(walls[-1])
            continue
        walls.append(time.perf_counter() - started)
        adjusts.append(session.cluster.reported_time_adjustment)
        digests.append(row_digest(result.relation))
        counts.add(result.metrics, adjusts[-1])
        pace.follow(walls[-1])
        probe.step()
    factor = pace.factor()
    walls = [wall * factor for wall in walls]
    return {"raw": sum(walls) / factor, "wall": sum(walls), "walls": walls,
            "reported": sum(walls) + sum(adjusts), "factor": factor,
            "comm": counts.comm_tuples, "digests": digests}


def check_passes(setup: Setup, passes: list, checks: Checks) -> None:
    """Every result of every pass against the centralized evaluator.

    The references are computed after the timed passes, so their memory
    does not count in the passes' ``peak_rss_mb``.
    """
    expected = [row_digest(relation) for relation in references(setup)]
    for record in passes:
        for (_, query), digest, reference in zip(
                setup.queries, record["digests"], expected):
            if digest is not None:
                checks.record(digest == reference,
                              f"{query.qid}: rows differ from the "
                              f"centralized evaluator")


def run(seed: int, seconds: float, traced: bool, out_dir) -> tuple:
    setup_samples: list[float] = []
    setup = build(seed, setup_samples)
    try:
        checks = Checks()
        probe = CommitProbe(session_commit(setup.writer))
        if traced:
            metrics = traced_run(setup, references(setup), checks, probe,
                                 seed, out_dir)
            return metrics, checks
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(one_pass(setup, checks, probe))
            # Set-up samples after every pass spread them over the run.
            for _ in range(SETUP_REPEATS):
                timed_setup(seed, setup_samples).close()
        commits = probe.finish()
        peak_rss = peak_rss_mb()
        check_passes(setup, passes, checks)
    finally:
        setup.close()
    # Medians over passes: a pass's total, and each query's own time.
    per_query = [median(walls)
                 for walls in zip(*(record["walls"] for record in passes))]
    wall = median([record["wall"] for record in passes])
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": wall,
        "reported_s": median([record["reported"] for record in passes]),
        "comm_tuples": median([record["comm"] for record in passes]),
        "throughput_qps": len(per_query) / wall,
        "latency_p50_ms": median(per_query) * 1e3,
        "latency_p99_ms": quantile(per_query, 0.99) * 1e3,
        "read_p50_ms": median(per_query) * 1e3,
        "peak_rss_mb": peak_rss,
        **commits,
        "raw.wall_s": median([record["raw"] for record in passes]),
        "host.speed_factor": median([record["factor"] for record in passes]),
        "samples.passes": len(passes),
        "samples.commits": len(probe.samples),
    }
    return metrics, checks


def traced_run(setup: Setup, expected: list, checks: Checks,
               probe: CommitProbe, seed: int, out_dir) -> dict[str, float]:
    """One untraced pass, one traced staged pass, then loop profiles."""
    untraced = one_pass(setup, checks, probe)
    check_passes(setup, [untraced], checks)
    spans = SpanRecorder()
    totals = StageTotals()
    registry_before = kernel_counters(get_registry().snapshot())
    with spans.span("bench.pass", "pass") as pass_span:
        for index, ((session, query), reference) in enumerate(
                zip(setup.queries, expected)):
            request = f"{query.qid}#{index}"
            with spans.span("bench.query", request):
                try:
                    outcome = staged_query(session, query.text, spans, request)
                except ReproError as error:
                    checks.record(False, f"{query.qid}: {error}")
                    continue
            totals.add(outcome)
            checks.record(same_rows(outcome.result.relation, reference),
                          f"{query.qid}: staged rows differ")
    kernels = counter_delta(registry_before,
                            kernel_counters(get_registry().snapshot()))
    traced_wall = pass_span.duration
    profile = fixpoint_profile((session, query.text)
                               for session, query in setup.queries)
    commits = probe.finish()
    spans.write(out_dir / f"analytic-cold-seed{seed}-spans.jsonl")

    own = spans.self_times()
    stages = sum(own.get(name, 0.0) for name in (
        "query.parse", "query.translate", "rewriter.explore", "cost.rank",
        "distributed.execute"))
    metrics = totals.layer_metrics(spans)
    metrics.update(profile.layer_metrics())
    metrics.update(kernels)
    metrics.update({
        "data.commit_bare_ms": commits["commit_p50_ms"],
        "trace.untraced_wall_s": untraced["raw"],
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced["raw"],
        "trace.stage_coverage": stages / traced_wall,
    })
    return metrics
