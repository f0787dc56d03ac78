"""The cost model's single bottom-up pass against the recursive estimator.

``CostModel.report`` builds each node's estimate from its children's
through ``CardinalityEstimator.combine``; ``CardinalityEstimator.estimate``
walks the subtree on its own.  The two must agree bit for bit on every
sub-term of real workload plans, rank the plans exactly as a cost model
that re-estimates every node with the recursive walk would, and the pass
must do work linear in the plan size.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.algebra import (Antijoin, Fixpoint, Join, Literal, RelVar, Term,
                           Union, closure, compose, schemas_of_database)
from repro.algebra.conditions import decompose
from repro.cost import CardinalityEstimator, CostModel, rank_plans
from repro.cost import cardinality as cardinality_module
from repro.cost import cost_model as cost_model_module
from repro.cost.cost_model import DEDUP_FACTOR, ITERATION_OVERHEAD
from repro.data import Relation
from repro.data.stats import RelationStats, StatisticsCatalog
from repro.datasets import uniprot_graph, yago_like_graph
from repro.query import parse_query, translate_query
from repro.rewriter import explore_plans
from repro.workloads import uniprot_queries, yago_queries


def _workload_plans() -> list[tuple[str, StatisticsCatalog, list[Term]]]:
    yago = yago_like_graph(scale=60, seed=3)
    uniprot = uniprot_graph(num_edges=400, seed=3)
    cases = []
    for graph, queries in (
            (yago, yago_queries(("Q3", "Q7", "Q24"))),
            (uniprot, uniprot_queries(uniprot, ("Q28", "Q47")))):
        database = graph.relations()
        catalog = StatisticsCatalog(database)
        for query in queries:
            term = translate_query(parse_query(query.text))
            # The session's plan budget: the plan spaces it ranks.
            plans = explore_plans(term, schemas_of_database(database),
                                  max_plans=64)
            cases.append((query.qid, catalog, plans))
    # The workload plans hold no antijoin or literal: hand-written terms
    # cover them, inside and outside a fixpoint.
    catalog = StatisticsCatalog(yago.relations())
    literal = Literal(Relation.from_pairs([("a", "b"), ("b", "c")],
                                          columns=("src", "trg")))
    located = closure(RelVar("isLocatedIn"))
    cases.append(("operators", catalog, [
        located.antijoin(RelVar("dealsWith")),
        closure(RelVar("isLocatedIn").antijoin(RelVar("dealsWith"))),
        compose(literal.union(RelVar("livesIn")), located),
    ]))
    return cases


@pytest.fixture(scope="module")
def workload_plans():
    return _workload_plans()


def _subterms(term: Term):
    yield term
    for child in term.children():
        yield from _subterms(child)


def _reference_report(estimator: CardinalityEstimator, term: Term,
                      env: dict) -> tuple[float, RelationStats]:
    """Cost and estimate with every node re-estimated by the recursive walk."""
    estimate = estimator.estimate(term, env)
    if isinstance(term, Fixpoint):
        decomposition = decompose(term)
        seed_cost, _ = _reference_report(
            estimator, decomposition.constant_part, env)
        if decomposition.variable_part is None:
            return seed_cost, estimate
        iterations = min(max(2, int(math.ceil(math.log2(
            max(2, estimate.cardinality))))),
            cardinality_module.MAX_SIMULATED_ITERATIONS)
        inner = dict(env)
        inner[term.var] = estimate.scaled(1.0 / iterations)
        step_cost, _ = _reference_report(
            estimator, decomposition.variable_part, inner)
        return (seed_cost + iterations * (step_cost + ITERATION_OVERHEAD)
                + DEDUP_FACTOR * estimate.cardinality), estimate
    children = [_reference_report(estimator, child, env)
                for child in term.children()]
    if not children:
        return float(estimate.cardinality), estimate
    if len(children) == 1:
        (child_cost, child_estimate), = children
        return child_cost + child_estimate.cardinality, estimate
    (left_cost, left), (right_cost, right) = children
    if isinstance(term, Union):
        work = DEDUP_FACTOR * estimate.cardinality
    elif isinstance(term, Join):
        work = left.cardinality + right.cardinality + estimate.cardinality
    else:
        assert isinstance(term, Antijoin)
        work = left.cardinality + right.cardinality
    return left_cost + right_cost + work, estimate


class TestEquivalenceOracle:
    def test_plans_cover_the_named_queries(self, workload_plans):
        qids = {qid for qid, _, _ in workload_plans}
        assert qids == {"Q3", "Q7", "Q24", "Q28", "Q47", "operators"}
        assert all(plans for _, _, plans in workload_plans)
        assert any(isinstance(node, Fixpoint)
                   for qid, _, plans in workload_plans if qid == "Q28"
                   for plan in plans for node in _subterms(plan))

    def test_every_subterm_estimate_matches_the_recursive_walk(
            self, workload_plans):
        for qid, catalog, plans in workload_plans:
            model = CostModel(catalog=catalog)
            estimator = CardinalityEstimator(catalog=catalog)
            # Plans share most of their sub-terms: check each one once.
            subterms = {term for plan in plans for term in _subterms(plan)}
            for term in subterms:
                assert model.report(term).estimate == estimator.estimate(
                    term), (qid, str(term))

    def test_ranking_matches_the_recursive_cost_model(self, workload_plans):
        for qid, catalog, plans in workload_plans:
            estimator = CardinalityEstimator(catalog=catalog)
            expected = []
            for plan in plans:
                cost, estimate = _reference_report(estimator, plan, {})
                expected.append((plan, cost, estimate.cardinality))
            expected.sort(key=lambda entry: entry[1])
            ranked = rank_plans(plans, catalog=catalog)
            assert [(plan.term, plan.cost, plan.estimated_cardinality)
                    for plan in ranked] == expected, qid


# -- Linear work -----------------------------------------------------------

CHAIN_JOINS = 40


def _chain_catalog() -> StatisticsCatalog:
    """``r<i>(c<i>, c<i+1>)``: neighbours share one column, so every join
    of the chain keeps about 100 rows."""
    catalog = StatisticsCatalog()
    for index in range(CHAIN_JOINS + 1):
        catalog.register_stats(f"r{index}", RelationStats(
            cardinality=100,
            distinct_values={f"c{index}": 100, f"c{index + 1}": 100}))
    return catalog


def _chain(first: Term) -> Term:
    term = first
    for index in range(1, CHAIN_JOINS + 1):
        term = term.join(RelVar(f"r{index}"))
    return term


@pytest.fixture
def work_counts(monkeypatch):
    """Count ``combine`` calls per node (by identity) and ``decompose``
    calls made by the cost layer."""
    counts: Counter = Counter()
    original_combine = CardinalityEstimator.combine

    def counting_combine(self, term, children, env):
        counts[id(term)] += 1
        return original_combine(self, term, children, env)

    def counting_decompose(fixpoint):
        counts["decompose"] += 1
        return decompose(fixpoint)

    monkeypatch.setattr(CardinalityEstimator, "combine", counting_combine)
    monkeypatch.setattr(cardinality_module, "decompose", counting_decompose)
    monkeypatch.setattr(cost_model_module, "decompose", counting_decompose)
    return counts


class TestLinearWork:
    def test_join_chain_combines_every_node_once(self, work_counts):
        chain = _chain(RelVar("r0"))
        nodes = list(_subterms(chain))
        assert len(nodes) == 2 * CHAIN_JOINS + 1
        CostModel(catalog=_chain_catalog()).report(chain)
        assert sum(work_counts.values()) == len(nodes)
        assert all(work_counts[id(node)] == 1 for node in nodes)

    def test_fixpoint_over_a_join_chain_is_linear(self, work_counts):
        variable_part = _chain(RelVar("X"))
        fixpoint = Fixpoint("X", RelVar("r0").union(variable_part))
        report = CostModel(catalog=_chain_catalog()).report(fixpoint)
        assert report.estimate.cardinality > 100  # the recursion grew
        assert work_counts.pop("decompose") == 1
        assert work_counts.pop(id(fixpoint.body.left)) == 1
        # Each variable-part node is combined once per simulated round plus
        # once for the per-iteration cost: the same number of times at
        # every depth, so the total is linear in the chain's length.
        per_node = {work_counts[id(node)] for node in _subterms(variable_part)}
        assert len(per_node) == 1
        rounds, = per_node
        assert 2 < rounds <= cardinality_module.MAX_SIMULATED_ITERATIONS + 1
        assert sum(work_counts.values()) == rounds * (2 * CHAIN_JOINS + 1)
