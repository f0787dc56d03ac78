"""Tests of the cardinality estimator, the cost model and plan selection."""

from __future__ import annotations

import pytest

from repro.algebra import (Filter, Fixpoint, RelVar, closure, compose,
                           evaluate, schemas_of_database)
from repro.cost import (CardinalityEstimator, CostModel, rank_plans,
                        select_best_plan)
from repro.data import Eq, Relation
from repro.query import parse_query, translate_query
from repro.rewriter import explore_plans


@pytest.fixture
def database(small_labeled_graph):
    return small_labeled_graph.relations()


class TestCardinalityEstimator:
    def test_base_relation_is_exact(self, database):
        estimator = CardinalityEstimator(database)
        assert estimator.cardinality(RelVar("knows")) == len(database["knows"])

    def test_equality_filter_reduces_cardinality(self, database):
        estimator = CardinalityEstimator(database)
        base = estimator.cardinality(RelVar("isLocatedIn"))
        filtered = estimator.cardinality(
            Filter(Eq("src", "grenoble"), RelVar("isLocatedIn")))
        assert 0 < filtered <= base

    def test_union_adds_cardinalities(self, database):
        estimator = CardinalityEstimator(database)
        union = RelVar("knows").union(RelVar("livesIn"))
        assert estimator.cardinality(union) == (
            len(database["knows"]) + len(database["livesIn"]))

    def test_join_uses_distinct_counts(self, database):
        estimator = CardinalityEstimator(database)
        term = compose(RelVar("livesIn"), RelVar("isLocatedIn"))
        estimate = estimator.cardinality(term)
        actual = len(evaluate(term, database))
        # The estimate should be in the right ballpark (within 10x).
        assert estimate <= 10 * max(1, actual) + 10
        assert estimate >= 0

    def test_fixpoint_estimate_at_least_seed(self, database):
        estimator = CardinalityEstimator(database)
        term = closure(RelVar("isLocatedIn"))
        assert estimator.cardinality(term) >= len(database["isLocatedIn"])

    def test_cartesian_product(self):
        left = Relation.from_pairs([(1, 2), (3, 4)], columns=("a", "b"))
        right = Relation.from_pairs([(5, 6)], columns=("c", "d"))
        estimator = CardinalityEstimator({"L": left, "R": right})
        assert estimator.cardinality(RelVar("L").join(RelVar("R"))) == 2

    def test_requires_database_or_catalog(self):
        from repro.errors import CostEstimationError
        with pytest.raises(CostEstimationError):
            CardinalityEstimator()


class TestCostModel:
    def test_cost_is_positive_and_monotone_in_operators(self, database):
        model = CostModel(database=database)
        scan = model.cost(RelVar("knows"))
        filtered = model.cost(Filter(Eq("src", "alice"), RelVar("knows")))
        assert scan > 0
        assert filtered >= scan

    def test_pushed_filter_plan_is_cheaper(self, database):
        # C3-style query: the plan that pushes the source filter into the
        # closure must be estimated cheaper than the filter-on-top plan.
        model = CostModel(database=database)
        fixpoint = closure(RelVar("isLocatedIn"))
        unpushed = Filter(Eq("src", "grenoble"), fixpoint)
        from repro.rewriter import PushFilterIntoFixpoint, RewriteContext
        context = RewriteContext(base_schemas=schemas_of_database(database))
        pushed = PushFilterIntoFixpoint().apply_or_raise(unpushed, context)
        assert model.cost(pushed) < model.cost(unpushed)

    def test_merged_closures_cheaper_than_materialising_both(self, database):
        model = CostModel(database=database)
        term = compose(closure(RelVar("knows")), closure(RelVar("isLocatedIn")))
        from repro.rewriter import MergeClosures, RewriteContext
        context = RewriteContext(base_schemas=schemas_of_database(database))
        merged = MergeClosures().apply_or_raise(term, context)
        assert model.cost(merged) <= model.cost(term) * 2


class TestPlanSelection:
    def test_rank_plans_sorted_by_cost(self, database):
        term = translate_query(parse_query("?x <- grenoble isLocatedIn+ ?x"))
        plans = explore_plans(term, schemas_of_database(database))
        ranked = rank_plans(plans, database=database)
        costs = [plan.cost for plan in ranked]
        assert costs == sorted(costs)

    def test_selected_plan_is_correct(self, database):
        term = translate_query(parse_query("?x <- ?x isLocatedIn+ europe"))
        plans = explore_plans(term, schemas_of_database(database))
        best = select_best_plan(plans, database=database)
        assert evaluate(best.term, database) == evaluate(term, database)

    def test_selection_on_empty_plan_list_raises(self, database):
        from repro.errors import PlanSelectionError
        with pytest.raises(PlanSelectionError):
            select_best_plan([], database=database)

    def test_missing_relations_rank_with_default_statistics(self, database):
        # Unknown relations get the catalog's default cardinality: the
        # join is rankable, just more expensive than the base scan.
        good = RelVar("knows")
        bad = RelVar("missing-relation").join(RelVar("also-missing"))
        ranked = rank_plans([bad, good], database=database)
        assert ranked[0].term == good
        assert ranked[1].cost < float("inf")

    def test_unrankable_plan_goes_last(self, database):
        # No constant part: decomposing the fixpoint raises
        # FixpointConditionError, a library error.
        good = RelVar("knows")
        bad = Fixpoint("X", RelVar("X").join(RelVar("knows")))
        ranked = rank_plans([bad, good], database=database)
        assert [plan.term for plan in ranked] == [good, bad]
        assert ranked[1].cost == float("inf")
        assert ranked[1].estimated_cardinality == 0

    def test_estimator_bug_propagates(self, database, monkeypatch):
        def broken(self, term, children, env):
            raise KeyError("bug")

        monkeypatch.setattr(CardinalityEstimator, "combine", broken)
        with pytest.raises(KeyError):
            rank_plans([RelVar("knows")], database=database)
