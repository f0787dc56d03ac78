"""The one semi-naive fixpoint driver, seen from every layer that calls it.

Every fixpoint loop — the centralized evaluator, the per-worker local
engine, the three distributed plans and view maintenance — runs through
:func:`repro.algebra.fixpoint.iterate`.  These tests pin what that buys:
one error for one malformed fixpoint whatever the strategy and engine,
and one span contract (the attributes ``perfbench/stages.py`` reads) at
every loop site.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.algebra import (Evaluator, Fixpoint, RelVar, Rename, Union,
                           closure, decompose, evaluate)
from repro.data import LabeledGraph, Relation, row_mode
from repro.distributed import (PGLD, PPLW_POSTGRES, PPLW_SPARK,
                               LocalSQLEngine)
from repro.errors import EvaluationError
from repro.obs import tracing
from repro.service.view_maintenance import _resume

ENGINE_MODES = ("columnar", "row")
PLANS = (PGLD, PPLW_SPARK, PPLW_POSTGRES)

#: The variable part renames ``trg`` away, so its output schema can never
#: match the seed's: the loop must reject it on the first iteration.
MALFORMED = Fixpoint("X", Union(RelVar("edge"),
                                Rename("trg", "zzz", RelVar("X"))))

#: Span attributes every ``fixpoint.iteration`` span carries.
ITERATION_ATTRIBUTES = ("var", "iteration", "delta", "produced", "total",
                        "engine")


def run_in_mode(mode: str, fn):
    if mode == "row":
        with row_mode():
            return fn()
    return fn()


@pytest.fixture
def chain_graph() -> LabeledGraph:
    graph = LabeledGraph(name="driver-chain")
    graph.add_edges([(i, "edge", i + 1) for i in range(6)])
    graph.add_edges([(0, "edge", 3), (2, "edge", 5)])
    return graph


def _collect(graph, strategy):
    def run():
        with Session(graph, num_workers=2, optimize=False) as session:
            return session.term(MALFORMED).collect(strategy=strategy)
    return run


def _centralized(graph):
    def run():
        with Session(graph, num_workers=2) as session:
            return evaluate(MALFORMED, session.snapshot())
    return run


def _local_engine(graph):
    def run():
        with Session(graph, num_workers=2) as session:
            return LocalSQLEngine(session.snapshot()).evaluate_fixpoint(
                MALFORMED)
    return run


SITES = {
    "centralized": _centralized,
    "local-engine": _local_engine,
    PGLD: lambda graph: _collect(graph, PGLD),
    PPLW_SPARK: lambda graph: _collect(graph, PPLW_SPARK),
    PPLW_POSTGRES: lambda graph: _collect(graph, PPLW_POSTGRES),
}


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("site", tuple(SITES))
def test_malformed_fixpoint_raises_one_error_everywhere(chain_graph, site,
                                                        mode):
    with pytest.raises(EvaluationError,
                       match=r"variable part produced schema"):
        run_in_mode(mode, SITES[site](chain_graph))


def _assert_iteration_contract(iterations, expected_engine=None):
    for span in iterations:
        for key in ITERATION_ATTRIBUTES:
            assert span.attribute(key) is not None, (key, span.to_dict())
        if expected_engine is not None:
            assert span.attribute("engine") == expected_engine


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("strategy", PLANS)
def test_every_plan_emits_one_span_per_reported_iteration(chain_graph,
                                                           strategy, mode):
    def run():
        with Session(chain_graph, num_workers=2, optimize=False) as session:
            return session.ucrpq("?x,?y <- ?x edge+ ?y").explain_analyze(
                strategy=strategy, use_plan_cache=False,
                use_result_cache=False)
    report = run_in_mode(mode, run)
    iterations = report.iterations
    assert iterations
    _assert_iteration_contract(
        iterations, expected_engine="columnar" if mode == "columnar" else "row")
    metrics = report.result.metrics
    reported = (metrics.global_iterations if strategy == PGLD
                else metrics.local_iterations)
    assert len(iterations) == reported
    if strategy != PGLD:
        loops = report.spans("fixpoint.local_loop")
        assert loops
        assert all(loop.attribute("seed") is not None for loop in loops)
        assert sum(loop.attribute("iterations") for loop in loops) == reported


def test_traced_maintenance_resume_emits_iteration_spans():
    """A resume after inserting ``3 -> 10`` between two chains.

    The seed is the closure before the insert; the first frontier is the
    new edge plus every path now ending at 10, and each later iteration
    extends those paths one edge further along ``10 -> 11 -> 12 -> 13``:
    three productive iterations, then one that finds nothing new.
    """
    old_edges = [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13)]
    term = closure(RelVar("E"), var="X")
    old = evaluate(term, {"E": Relation.from_pairs(old_edges,
                                                   columns=("src", "trg"))})
    new_db = {"E": Relation.from_pairs(old_edges + [(3, 10)],
                                       columns=("src", "trg"))}
    evaluator = Evaluator(new_db)
    decomposition = decompose(term)
    constant = evaluator.evaluate(decomposition.constant_part)
    tracer = tracing.Tracer(enabled=True)
    with tracing.activate(tracer):
        maintained = _resume(evaluator, decomposition.variable_part,
                             decomposition.var, seed=old, constant=constant)
    assert maintained == evaluate(term, new_db)
    spans = [record for record in tracer.records()
             if record.name == "fixpoint.iteration"]
    assert [span.attribute("iteration") for span in spans] == [1, 2, 3, 4]
    for span in spans:
        for key in ITERATION_ATTRIBUTES:
            assert span.attribute(key) is not None, key
    assert spans[-1].attribute("total") == len(maintained)
