"""Cross-front-end differential tests on seeded random graphs.

One query, many ways to answer it — all through one :class:`Session`: the
three distributed fixpoint plans (Pgld, Pplw^s, Pplw^pg), each on the
three executor backends (serial, threads, processes), the centralized
mu-RA evaluator, and the Datalog front-end (``session.datalog``, the same
left-linear translation the BigDatalog baseline uses).  Every combination
must produce exactly the same relation — any divergence is either a
distribution bug (fixpoint splitting, final union), a concurrency bug
(task isolation, metrics races), or a semantics bug in one of the
front-end compilers.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.data import row_mode
from repro.data.relation import Relation
from repro.datasets import uniprot_graph
from repro.distributed import (EXECUTOR_BACKENDS, PGLD, PPLW_POSTGRES,
                               PPLW_SPARK)
from repro.workloads import uniprot_queries

ALL_PLANS = (PGLD, PPLW_SPARK, PPLW_POSTGRES)

CLOSURE_QUERY = "?x,?y <- ?x edge+ ?y"
CONCAT_QUERY = "?x,?y <- ?x a+/b+ ?y"


def canonical(relation: Relation) -> tuple:
    """Column-order-independent identity of a relation."""
    order = tuple(sorted(relation.columns))
    indices = [relation.columns.index(column) for column in order]
    return order, frozenset(tuple(row[i] for i in indices)
                            for row in relation.rows)


def centralized_answer(graph, query_text: str) -> tuple:
    session = Session(graph, optimize=False)
    term = session.ucrpq(query_text).term
    return canonical(session.evaluate_centralized(term))


@pytest.fixture(scope="module")
def closure_reference(seeded_random_graph):
    return centralized_answer(seeded_random_graph, CLOSURE_QUERY)


@pytest.fixture(scope="module")
def concat_reference(seeded_two_label_graph):
    return centralized_answer(seeded_two_label_graph, CONCAT_QUERY)


@pytest.fixture(scope="module")
def tree_reference(seeded_tree_graph):
    return centralized_answer(seeded_tree_graph, CLOSURE_QUERY)


class TestPlanExecutorMatrix:
    """Every plan x executor combination equals the centralized answer."""

    @pytest.mark.parametrize("executor", EXECUTOR_BACKENDS)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure(self, seeded_random_graph, closure_reference,
                     strategy, executor):
        with Session(seeded_random_graph, num_workers=4, optimize=False,
                     executor=executor) as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference
        assert result.metrics.executor == executor
        assert result.metrics.tasks_launched > 0

    @pytest.mark.parametrize("executor", ("serial", "threads"))
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_concatenated_closures(self, seeded_two_label_graph,
                                   concat_reference, strategy, executor):
        with Session(seeded_two_label_graph, num_workers=4, optimize=False,
                     executor=executor) as session:
            result = session.ucrpq(CONCAT_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == concat_reference

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_tree_closure(self, seeded_tree_graph, tree_reference, strategy):
        with Session(seeded_tree_graph, num_workers=3, optimize=False,
                     executor="threads") as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == tree_reference


class TestOptimizedPlansStillAgree:
    """The rewriter must not change the answer, whatever the backend."""

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure_with_optimizer(self, seeded_random_graph,
                                    closure_reference, strategy):
        with Session(seeded_random_graph, num_workers=4, optimize=True,
                     executor="threads") as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference


class TestCrossFrontEnd:
    """The UCRPQ and Datalog front-ends agree over one shared session."""

    def test_closure_matches_datalog(self, seeded_random_graph,
                                     closure_reference):
        with Session(seeded_random_graph, num_workers=4) as session:
            result = session.datalog(CLOSURE_QUERY).collect()
        assert canonical(result.relation) == closure_reference

    def test_concat_matches_datalog(self, seeded_two_label_graph,
                                    concat_reference):
        with Session(seeded_two_label_graph, num_workers=4) as session:
            result = session.datalog(CONCAT_QUERY).collect()
        assert canonical(result.relation) == concat_reference

    def test_tree_matches_datalog(self, seeded_tree_graph, tree_reference):
        with Session(seeded_tree_graph, num_workers=4) as session:
            result = session.datalog(CLOSURE_QUERY).collect()
        assert canonical(result.relation) == tree_reference

    def test_both_front_ends_one_session(self, seeded_random_graph,
                                         closure_reference):
        """Front-ends share a session (and its caches) without interfering."""
        with Session(seeded_random_graph, num_workers=4) as session:
            mu = session.ucrpq(CLOSURE_QUERY).collect().relation
            datalog = session.datalog(CLOSURE_QUERY).collect().relation
            assert canonical(mu) == canonical(datalog) == closure_reference


#: Execution-engine axis: the columnar kernels (the default) and the
#: indexed row engine (``row_mode``).
ENGINE_MODES = ("columnar", "row")

#: Recursive Uniprot workload queries small enough for a unit-test graph.
UNIPROT_DIFFERENTIAL_QIDS = ("Q42", "Q45", "Q47")


def run_in_mode(mode: str, fn):
    if mode == "row":
        with row_mode():
            return fn()
    return fn()


@pytest.fixture(scope="module")
def uniprot_differential_graph():
    return uniprot_graph(num_edges=400, seed=11)


class TestColumnarAxis:
    """Columnar kernels vs row engine.

    The default-on columnar path is already exercised by every other test
    in this module; this class pins the *comparisons*: whatever the plan,
    executor or workload query, flipping the engine must not change one
    row.  The ``processes`` executor additionally proves that kernel
    closures and value dictionaries pickle (or rebuild) cleanly across
    process boundaries.
    """

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure_every_plan(self, seeded_random_graph, closure_reference,
                                strategy, mode):
        def run():
            with Session(seeded_random_graph, num_workers=4,
                         optimize=False) as session:
                return session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        result = run_in_mode(mode, run)
        assert canonical(result.relation) == closure_reference

    @pytest.mark.parametrize("executor", EXECUTOR_BACKENDS)
    def test_concat_columnar_vs_row_per_executor(self, seeded_two_label_graph,
                                                 concat_reference, executor):
        def run():
            with Session(seeded_two_label_graph, num_workers=4,
                         optimize=False, executor=executor) as session:
                return session.ucrpq(CONCAT_QUERY).collect(strategy=PGLD)
        columnar = run_in_mode("columnar", run)
        row = run_in_mode("row", run)
        assert (canonical(columnar.relation) == canonical(row.relation)
                == concat_reference)

    @pytest.mark.parametrize("qid", UNIPROT_DIFFERENTIAL_QIDS)
    def test_uniprot_workload_queries(self, uniprot_differential_graph,
                                      qid):
        query = {q.qid: q for q in
                 uniprot_queries(uniprot_differential_graph,
                                 subset=(qid,))}[qid]

        def run():
            with Session(uniprot_differential_graph, num_workers=3,
                         optimize=True, executor="threads") as session:
                return session.ucrpq(query.text).collect()
        results = {mode: canonical(run_in_mode(mode, run).relation)
                   for mode in ENGINE_MODES}
        assert results["columnar"] == results["row"]

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_processes_executor_pickles_kernels(self, seeded_random_graph,
                                                closure_reference, strategy):
        with Session(seeded_random_graph, num_workers=2, optimize=False,
                     executor="processes") as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference


class TestWorkerCountInvariance:
    """The answer must not depend on how many workers split the fixpoint."""

    @pytest.mark.parametrize("num_workers", (1, 2, 5))
    @pytest.mark.parametrize("strategy", (PPLW_SPARK, PPLW_POSTGRES))
    def test_closure(self, seeded_random_graph, closure_reference,
                     strategy, num_workers):
        with Session(seeded_random_graph, num_workers=num_workers,
                     optimize=False, executor="threads") as session:
            result = session.ucrpq(CLOSURE_QUERY).collect(strategy=strategy)
        assert canonical(result.relation) == closure_reference
