"""Selinger-style cost model over mu-RA terms.

The CostEstimator component of Dist-mu-RA assigns to every logical plan an
abstract cost built from the estimated cardinalities of its sub-terms.  The
model here mirrors that design:

* scanning a relation costs its cardinality,
* a hash join costs the sum of its input and output cardinalities,
* a union costs its inputs plus the duplicate-eliminating pass on its
  output,
* a fixpoint costs the per-iteration cost of its variable part multiplied
  by the estimated number of iterations, plus the accumulation of the
  result (this is where plans that push filters/joins into the recursion
  win: their per-iteration input is much smaller).

Costs are unit-less; only their relative order matters for plan selection.

A plan is costed in one bottom-up pass: each node's report is built from
its children's, and its estimate from theirs through the estimator's
per-node combiner, so no subtree is estimated twice.  A fixpoint hands the
estimate of its constant part and its decomposition to the growth
simulation rather than re-deriving either.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from ..data.relation import Relation
from ..data.stats import RelationStats, StatisticsCatalog
from ..algebra.conditions import decompose
from ..algebra.terms import Fixpoint, Join, Term, Union
from .cardinality import MAX_SIMULATED_ITERATIONS, CardinalityEstimator

#: Relative weight of one duplicate-elimination pass.
DEDUP_FACTOR = 1.0
#: Fixed per-iteration overhead of a fixpoint (scheduling, set difference).
ITERATION_OVERHEAD = 10.0


@dataclass(frozen=True)
class CostReport:
    """Cost of a term together with its estimated output cardinality."""

    cost: float
    estimate: RelationStats


class CostModel:
    """Assign an abstract evaluation cost to mu-RA terms."""

    def __init__(self, database: Mapping[str, Relation] | None = None,
                 catalog: StatisticsCatalog | None = None,
                 estimator: CardinalityEstimator | None = None):
        if estimator is not None:
            self.estimator = estimator
        else:
            self.estimator = CardinalityEstimator(database=database, catalog=catalog)

    # -- Public API -----------------------------------------------------------

    def cost(self, term: Term) -> float:
        """Return the estimated cost of evaluating ``term``."""
        return self.report(term).cost

    def report(self, term: Term,
               env: Mapping[str, RelationStats] | None = None) -> CostReport:
        """Return both the cost and the cardinality estimate of ``term``."""
        return self._report(term, dict(env or {}))

    # -- Bottom-up pass ---------------------------------------------------------

    def _report(self, term: Term, env: dict[str, RelationStats]) -> CostReport:
        if isinstance(term, Fixpoint):
            return self._report_fixpoint(term, env)
        children = [self._report(child, env) for child in term.children()]
        estimate = self.estimator.combine(
            term, [child.estimate for child in children], env)
        if not children:
            # RelVar, Literal: a scan.
            return CostReport(cost=float(estimate.cardinality), estimate=estimate)
        if len(children) == 1:
            # Filter, Rename, AntiProject: one pass over the input.
            child, = children
            return CostReport(cost=child.cost + child.estimate.cardinality,
                              estimate=estimate)
        left, right = children
        if isinstance(term, Union):
            work = DEDUP_FACTOR * estimate.cardinality
        elif isinstance(term, Join):
            work = (left.estimate.cardinality + right.estimate.cardinality
                    + estimate.cardinality)
        else:
            # Antijoin: one pass over each input.
            work = left.estimate.cardinality + right.estimate.cardinality
        return CostReport(cost=left.cost + right.cost + work, estimate=estimate)

    # -- Fixpoint -------------------------------------------------------------

    def _report_fixpoint(self, term: Fixpoint, env: dict[str, RelationStats]) -> CostReport:
        decomposition = decompose(term)
        seed_report = self._report(decomposition.constant_part, env)
        estimate = self.estimator.simulate_growth(
            decomposition, seed_report.estimate, env)
        if decomposition.variable_part is None:
            return CostReport(cost=seed_report.cost, estimate=estimate)
        # Estimated number of iterations: logarithmic in the result size
        # (log-based technique), never below 2.
        iterations = max(2, int(math.ceil(math.log2(max(2, estimate.cardinality)))))
        iterations = min(iterations, MAX_SIMULATED_ITERATIONS)
        # Cost of one iteration of the variable part, with the recursive
        # variable bound to an "average delta" (total size / iterations).
        average_delta = estimate.scaled(1.0 / iterations)
        inner_env = dict(env)
        inner_env[term.var] = average_delta
        iteration_report = self._report(decomposition.variable_part, inner_env)
        loop_cost = iterations * (iteration_report.cost + ITERATION_OVERHEAD)
        accumulation = DEDUP_FACTOR * estimate.cardinality
        total = seed_report.cost + loop_cost + accumulation
        return CostReport(cost=total, estimate=estimate)
