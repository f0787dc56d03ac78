"""Centralized (single-node) evaluation of mu-RA terms.

This is the reference evaluator: every other execution strategy (the
distributed plans, the per-worker local engine, the baselines) is tested
against it.  Fixpoints are evaluated with the semi-naive (differential)
method of Algorithm 1 of the paper (the shared driver in
:mod:`repro.algebra.fixpoint`), which is correct for Fcond-satisfying
terms thanks to Proposition 1 (``Psi(S) = Psi(empty) U union_x
Psi({x})``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..data.columnar import snapshot_dictionary
from ..data.relation import Relation
from ..errors import EvaluationError
from .conditions import decompose
from .fixpoint import MAX_ITERATIONS, run_fixpoint
from .kernels import KernelProgramCache
from .terms import (AntiProject, Antijoin, Filter, Fixpoint, Join, Literal,
                    Rename, RelVar, Term, Union)
from .variables import is_constant_in


@dataclass
class EvaluationStats:
    """Counters filled in by the evaluator, used by tests and benchmarks."""

    fixpoint_iterations: int = 0
    fixpoints_evaluated: int = 0
    tuples_produced: int = 0
    per_fixpoint_iterations: list[int] = field(default_factory=list)
    #: Hash-index activity of joins/antijoins against recursion-constant
    #: operands (see :meth:`Evaluator._eval_join`): a build hashes the
    #: constant relation, a reuse probes a table built on an earlier
    #: iteration.  Benchmarks surface these through ClusterMetrics.
    index_builds: int = 0
    index_reuses: int = 0

    def record_fixpoint(self, iterations: int, result_size: int) -> None:
        self.fixpoints_evaluated += 1
        self.fixpoint_iterations += iterations
        self.tuples_produced += result_size
        self.per_fixpoint_iterations.append(iterations)


class Evaluator:
    """Evaluate mu-RA terms against a database of named relations."""

    def __init__(self, database: Mapping[str, Relation],
                 max_iterations: int = MAX_ITERATIONS,
                 stats: EvaluationStats | None = None,
                 kernel_cache: KernelProgramCache | None = None):
        # The shared per-snapshot value dictionary must be captured before
        # the defensive dict() copy below discards the snapshot type.
        self._dictionary = snapshot_dictionary(database)
        self._kernel_cache = kernel_cache
        self.database = dict(database)
        self.max_iterations = max_iterations
        self.stats = stats if stats is not None else EvaluationStats()
        # Recursion-constant subterms evaluate to the same relation on
        # every fixpoint iteration (the database is a snapshot); caching
        # them keys the join-side hash indexes to one relation object, so
        # the index built on iteration 1 is probed on every later one.
        self._constant_cache: dict[Term, Relation] = {}

    def evaluate(self, term: Term, env: Mapping[str, Relation] | None = None) -> Relation:
        """Evaluate ``term``; ``env`` binds recursive variables to relations."""
        return self._eval(term, dict(env or {}))

    # -- Dispatch -------------------------------------------------------------

    def _eval(self, term: Term, env: dict[str, Relation]) -> Relation:
        if isinstance(term, RelVar):
            return self._eval_variable(term, env)
        if isinstance(term, Literal):
            return term.relation
        if isinstance(term, Union):
            return self._eval(term.left, env).union(self._eval(term.right, env))
        if isinstance(term, Join):
            return self._eval_join(term, env)
        if isinstance(term, Antijoin):
            return self._eval_antijoin(term, env)
        if isinstance(term, Filter):
            return self._eval(term.child, env).filter(term.predicate)
        if isinstance(term, Rename):
            return self._eval(term.child, env).rename(term.old, term.new)
        if isinstance(term, AntiProject):
            return self._eval(term.child, env).antiproject(term.columns)
        if isinstance(term, Fixpoint):
            return self._eval_fixpoint(term, env)
        raise EvaluationError(f"cannot evaluate term of type {type(term).__name__}")

    def _eval_variable(self, term: RelVar, env: dict[str, Relation]) -> Relation:
        if term.name in env:
            return env[term.name]
        if term.name in self.database:
            return self.database[term.name]
        raise EvaluationError(
            f"unknown relation {term.name!r}; known relations: "
            f"{sorted(self.database)[:10]}..."
        )

    # -- Joins against recursion-constant operands ----------------------------

    def _eval_join(self, term: Join, env: dict[str, Relation]) -> Relation:
        """Evaluate a join; inside a recursion, index the constant side.

        When exactly one operand is constant in every bound recursive
        variable, that operand has the same value on every iteration: it is
        evaluated once (term-keyed cache) and its hash index on the common
        columns is warmed, so every later iteration reduces to probing with
        the delta.
        """
        sides = self._constant_sides(term, env)
        if sides is None:
            return self._eval(term.left, env).natural_join(
                self._eval(term.right, env))
        constant_term, variable_term = sides
        constant = self.evaluate_constant(constant_term)
        variable = self._eval(variable_term, env)
        common = tuple(c for c in variable.columns if c in constant.columns)
        if common:
            self._warm_index(constant, common)
        return variable.natural_join(constant)

    def _eval_antijoin(self, term: Antijoin, env: dict[str, Relation]) -> Relation:
        left = self._eval(term.left, env)
        if env and all(is_constant_in(term.right, var) for var in env) \
                and not all(is_constant_in(term.left, var) for var in env):
            right = self.evaluate_constant(term.right)
            common = tuple(c for c in left.columns if c in right.columns)
            if common:
                self._warm_index(right, common)
            return left.antijoin(right)
        return left.antijoin(self._eval(term.right, env))

    def _constant_sides(self, term: Join,
                        env: dict[str, Relation]) -> tuple[Term, Term] | None:
        """Return ``(constant_side, variable_side)`` or None when ambiguous."""
        if not env:
            return None
        left_constant = all(is_constant_in(term.left, var) for var in env)
        right_constant = all(is_constant_in(term.right, var) for var in env)
        if left_constant == right_constant:
            return None
        if left_constant:
            return term.left, term.right
        return term.right, term.left

    def evaluate_constant(self, term: Term) -> Relation:
        """Evaluate a recursion-constant term, memoized on the evaluator.

        Sound because the evaluator's database is a snapshot: a term with no
        free recursive variables has the same value on every call.  The
        distributed plans use this so the relation they broadcast (and
        index) on iteration *n* is the same object as on iteration 1.
        """
        cached = self._constant_cache.get(term)
        if cached is None:
            cached = self._eval(term, {})
            self._constant_cache[term] = cached
        return cached

    def _warm_index(self, relation: Relation, common: tuple[str, ...]) -> None:
        if relation.has_index(common):
            self.stats.index_reuses += 1
        else:
            self.stats.index_builds += 1
            relation.index_on(common)

    # -- Fixpoint -------------------------------------------------------------

    def _eval_fixpoint(self, term: Fixpoint, env: dict[str, Relation]) -> Relation:
        decomposition = decompose(term)
        constant = self._eval(decomposition.constant_part, env)
        if decomposition.variable_part is None:
            self.stats.record_fixpoint(iterations=0, result_size=len(constant))
            return constant
        variable_part = decomposition.variable_part
        # One environment for the whole loop: only the delta binding
        # changes per iteration.
        inner_env = dict(env)

        def row_step(delta: Relation) -> Relation:
            inner_env[term.var] = delta
            return self._eval(variable_part, inner_env)

        # Recursion-constant subterms that mention *outer* fixpoint
        # variables must resolve under the enclosing environment — and must
        # not be memoized, their value changes per outer iteration.  Pure
        # constants go through the term-keyed cache shared with the
        # distributed plans.
        if env:
            def resolve(t: Term) -> Relation:
                return self._eval(t, env)
        else:
            resolve = self.evaluate_constant
        run = run_fixpoint(
            term.var, variable_part, constant, row_step,
            kernel_cache=self._kernel_cache, dictionary=self._dictionary,
            resolve=resolve, max_iterations=self.max_iterations,
            nonconvergence=f"fixpoint on {term.var!r} did not converge "
                           f"after {self.max_iterations} iterations")
        self.stats.index_builds += run.index_builds
        self.stats.index_reuses += run.index_reuses
        self.stats.record_fixpoint(iterations=run.iterations,
                                   result_size=len(run.relation))
        return run.relation


def evaluate(term: Term, database: Mapping[str, Relation],
             env: Mapping[str, Relation] | None = None,
             stats: EvaluationStats | None = None,
             max_iterations: int = MAX_ITERATIONS) -> Relation:
    """Convenience wrapper: evaluate one term against a database."""
    evaluator = Evaluator(database, max_iterations=max_iterations, stats=stats)
    return evaluator.evaluate(term, env=env)


def naive_fixpoint(term: Fixpoint, database: Mapping[str, Relation],
                   env: Mapping[str, Relation] | None = None,
                   max_iterations: int = MAX_ITERATIONS) -> Relation:
    """Evaluate a fixpoint with the *naive* method (re-applying phi to the
    whole accumulated result each round).

    Exists for differential testing against the semi-naive evaluator and as
    the reference implementation of the fixpoint semantics
    ``mu(X = Psi) = Psi^inf(empty)``.
    """
    evaluator = Evaluator(database, max_iterations=max_iterations)
    decomposition = decompose(term)
    env = dict(env or {})
    current = Relation.empty(
        evaluator.evaluate(decomposition.constant_part, env=env).columns)
    for _ in range(max_iterations):
        inner_env = dict(env)
        inner_env[term.var] = current
        next_value = evaluator.evaluate(term.body, env=inner_env)
        if next_value == current:
            return current
        current = next_value
    raise EvaluationError(
        f"naive fixpoint on {term.var!r} did not converge after "
        f"{max_iterations} iterations"
    )
