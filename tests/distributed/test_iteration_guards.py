"""Regression tests: iteration guards fail cleanly instead of hanging.

A fixpoint that does not converge within the configured bound must raise
:class:`~repro.errors.EvaluationError` — from every plan, through every
executor backend, and through the benchmark harness (which converts it into
a ``failed`` run, the paper's red cross).  The bounds are monkeypatched to
tiny values so an ordinary multi-iteration closure plays the role of the
deliberately non-converging fixpoint; every loop reads the one bound of
the fixpoint driver.
"""

from __future__ import annotations

import pytest

from repro.algebra import RelVar, closure
from repro.algebra import fixpoint as fixpoint_module
from repro.distributed import (PGLD, PPLW_POSTGRES, PPLW_SPARK, LocalSQLEngine,
                               SparkCluster, make_plan)
from repro.errors import EvaluationError


@pytest.fixture
def closure_term():
    return closure(RelVar("E"), var="X")


def test_global_loop_guard_raises(paper_database, closure_term, monkeypatch):
    monkeypatch.setattr(fixpoint_module, "MAX_ITERATIONS", 1)
    plan = make_plan(PGLD, SparkCluster(num_workers=4), paper_database)
    with pytest.raises(EvaluationError, match="did not converge"):
        plan.execute(closure_term)


@pytest.mark.parametrize("executor", ("serial", "threads", "processes"))
@pytest.mark.parametrize("strategy", (PPLW_SPARK, PPLW_POSTGRES))
def test_local_loop_guard_raises_through_executors(
        paper_database, closure_term, monkeypatch, strategy, executor):
    # The bound is read at submission time and shipped with the task, so the
    # guard fires identically on in-process and out-of-process backends.
    monkeypatch.setattr(fixpoint_module, "MAX_ITERATIONS", 1)
    with SparkCluster(num_workers=4, executor=executor) as cluster:
        plan = make_plan(strategy, cluster, paper_database)
        with pytest.raises(EvaluationError, match="did not converge"):
            plan.execute(closure_term)


def test_local_engine_guard_raises(paper_database, closure_term):
    engine = LocalSQLEngine(paper_database, max_iterations=1)
    with pytest.raises(EvaluationError, match="did not converge"):
        engine.evaluate_fixpoint(closure_term)


def test_local_engine_guard_reports_bound(paper_database, closure_term):
    engine = LocalSQLEngine(paper_database, max_iterations=2)
    with pytest.raises(EvaluationError, match="within 2 iterations"):
        engine.evaluate_fixpoint(closure_term)


def test_harness_reports_nonconvergence_as_failed_run(paper_edges, monkeypatch):
    """The benchmark harness turns the guard into a failed cell, not a hang."""
    from repro.bench import run_distmura
    from repro.data import LabeledGraph
    from repro.workloads.common import ucrpq_query

    monkeypatch.setattr(fixpoint_module, "MAX_ITERATIONS", 1)
    graph = LabeledGraph(name="guard-test")
    graph.add_edges([(row[0], "edge", row[1]) for row in paper_edges.rows])
    query = ucrpq_query("GUARD", "?x,?y <- ?x edge+ ?y")
    measured = run_distmura(graph, query, strategy=PPLW_SPARK,
                            optimize=False, executor="threads")
    assert measured.status == "failed"
    assert "did not converge" in measured.detail
