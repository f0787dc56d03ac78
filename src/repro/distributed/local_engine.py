"""Per-worker local relational engine (the PostgreSQL stand-in).

In the ``Pplw^pg`` physical plan, every Spark worker delegates its local
fixpoint to a PostgreSQL instance running next to it: the worker's chunk of
the constant part is exposed as a view, the mu-RA fixpoint is translated to
a recursive SQL query, and the rows are iterated back into Spark.

This module provides the equivalent component for the reproduction:
:class:`LocalSQLEngine` is a single-node engine that

* registers base relations as *tables* and builds **hash indexes** on the
  join columns it needs — once, before the recursion starts,
* evaluates the fixpoint with the semi-naive algorithm, using the prebuilt
  indexes to extend the delta at every iteration (this is what makes it
  faster than the generic evaluator when the intermediate data is large,
  reproducing the crossover of Fig. 5),
* can render the fixpoint as an indicative ``WITH RECURSIVE`` SQL string
  (:func:`fixpoint_to_sql`), mirroring the translation step of the paper.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..algebra import fixpoint as fixpoint_driver
from ..algebra.conditions import Decomposition, decompose
from ..algebra.kernels import KernelProgramCache
from ..algebra.printer import term_to_string
from ..algebra.terms import (AntiProject, Antijoin, Filter, Fixpoint, Join,
                             Literal, Rename, RelVar, Term, Union)
from ..algebra.variables import is_constant_in
from ..data.columnar import snapshot_dictionary
from ..data.relation import Relation
from ..data.storage import HashIndex
from ..errors import DistributionError, EvaluationError


@dataclass
class LocalExecutionStats:
    """Counters reported by one local fixpoint execution."""

    iterations: int = 0
    tuples_produced: int = 0
    index_builds: int = 0
    index_reuses: int = 0
    indexed_probes: int = 0
    tables_registered: int = 0


class LocalSQLEngine:
    """A single-node relational engine with prebuilt join indexes."""

    def __init__(self, database: Mapping[str, Relation],
                 max_iterations: int | None = None,
                 kernel_cache: KernelProgramCache | None = None):
        # Captured before the dict() copy: snapshots carry the shared
        # per-graph value dictionary, plain mappings get a private one.
        self._dictionary = snapshot_dictionary(database)
        self._kernel_cache = kernel_cache
        self.database = dict(database)
        #: Iteration bound for the semi-naive loop; ``None`` defers to the
        #: driver's :data:`~repro.algebra.fixpoint.MAX_ITERATIONS` at
        #: evaluation time.
        self.max_iterations = max_iterations
        self.stats = LocalExecutionStats()
        self.stats.tables_registered = len(self.database)
        self._constant_cache: dict[Term, Relation] = {}

    # -- Public API -----------------------------------------------------------

    def register_table(self, name: str, relation: Relation) -> None:
        """Register (or replace) a table; mirrors creating a view in Postgres."""
        self.database[name] = relation
        self.stats.tables_registered += 1

    def evaluate_fixpoint(self, fixpoint: Fixpoint,
                          seed_override: Relation | None = None) -> Relation:
        """Evaluate a fixpoint locally with the semi-naive algorithm.

        ``seed_override`` replaces the evaluated constant part; the
        distributed runtime uses it to run the fixpoint on one worker's
        chunk of the constant part (the "view" of the paper).
        """
        decomposition = decompose(fixpoint)
        seed = (seed_override if seed_override is not None
                else self._evaluate(decomposition.constant_part, {}))
        if decomposition.variable_part is None:
            return seed
        return self._semi_naive(decomposition, seed)

    def evaluate(self, term: Term) -> Relation:
        """Evaluate an arbitrary term (fixpoints handled recursively)."""
        return self._evaluate(term, {})

    # -- Semi-naive loop with indexed joins -------------------------------------

    def _semi_naive(self, decomposition: Decomposition, seed: Relation) -> Relation:
        var = decomposition.var
        variable_part = decomposition.variable_part
        limit = (self.max_iterations if self.max_iterations is not None
                 else fixpoint_driver.MAX_ITERATIONS)
        env: dict[str, Relation] = {}

        def row_step(delta: Relation) -> Relation:
            env[var] = delta
            return self._evaluate(variable_part, env)

        run = fixpoint_driver.run_fixpoint(
            var, variable_part, seed, row_step,
            kernel_cache=self._kernel_cache, dictionary=self._dictionary,
            resolve=self._evaluate_constant, max_iterations=limit,
            nonconvergence=f"local fixpoint on {var!r} did not converge "
                           f"within {limit} iterations")
        self.stats.iterations += run.iterations
        self.stats.tuples_produced += len(run.relation)
        self.stats.index_builds += run.index_builds
        self.stats.index_reuses += run.index_reuses
        self.stats.indexed_probes += run.probes
        return run.relation

    # -- Term evaluation ----------------------------------------------------------

    def _evaluate(self, term: Term, env: dict[str, Relation]) -> Relation:
        if isinstance(term, RelVar):
            if term.name in env:
                return env[term.name]
            if term.name in self.database:
                return self.database[term.name]
            raise EvaluationError(f"unknown table {term.name!r} in local engine")
        if isinstance(term, Literal):
            return term.relation
        if isinstance(term, Filter):
            return self._evaluate(term.child, env).filter(term.predicate)
        if isinstance(term, Rename):
            return self._evaluate(term.child, env).rename(term.old, term.new)
        if isinstance(term, AntiProject):
            return self._evaluate(term.child, env).antiproject(term.columns)
        if isinstance(term, Union):
            return self._evaluate(term.left, env).union(self._evaluate(term.right, env))
        if isinstance(term, Antijoin):
            return self._evaluate(term.left, env).antijoin(
                self._evaluate(term.right, env))
        if isinstance(term, Join):
            return self._evaluate_join(term, env)
        if isinstance(term, Fixpoint):
            return self.evaluate_fixpoint(term)
        raise EvaluationError(
            f"local engine cannot evaluate {type(term).__name__}")

    def _evaluate_join(self, term: Join, env: dict[str, Relation]) -> Relation:
        """Joins against recursion-constant operands use a cached hash index."""
        recursive_vars = set(env)
        left_constant = all(is_constant_in(term.left, var) for var in recursive_vars)
        right_constant = all(is_constant_in(term.right, var) for var in recursive_vars)
        if recursive_vars and left_constant != right_constant:
            constant_side = term.left if left_constant else term.right
            variable_side = term.right if left_constant else term.left
            constant_relation = self._evaluate_constant(constant_side)
            variable_relation = self._evaluate(variable_side, env)
            common = tuple(c for c in variable_relation.columns
                           if c in constant_relation.columns)
            if common:
                return self._indexed_join(variable_relation,
                                          constant_relation, common)
            return variable_relation.natural_join(constant_relation)
        left = self._evaluate(term.left, env)
        right = self._evaluate(term.right, env)
        return left.natural_join(right)

    def _evaluate_constant(self, term: Term) -> Relation:
        if term not in self._constant_cache:
            self._constant_cache[term] = self._evaluate(term, {})
        return self._constant_cache[term]

    def _indexed_join(self, probe: Relation, build_relation: Relation,
                      key_columns: tuple[str, ...]) -> Relation:
        index = self._index_for(build_relation, key_columns)
        probe_indices = [probe.columns.index(column) for column in key_columns]
        output_columns = tuple(sorted(set(probe.columns) | set(build_relation.columns)))
        plan = []
        for column in output_columns:
            if column in probe.columns:
                plan.append((0, probe.columns.index(column)))
            else:
                plan.append((1, build_relation.columns.index(column)))
        rows = set()
        for row in probe.rows:
            key = tuple(row[i] for i in probe_indices)
            for match in index.probe(key):
                rows.add(tuple(row[i] if side == 0 else match[i]
                               for side, i in plan))
            self.stats.indexed_probes += 1
        return Relation._from_trusted(output_columns, rows)

    def _index_for(self, relation: Relation,
                   key_columns: tuple[str, ...]) -> HashIndex:
        """Return the shared per-relation index, counting builds vs reuses.

        The index lives *on the relation object* (see
        :meth:`repro.data.relation.Relation.index_on`), not in an
        engine-private cache: it cannot outlive its data — the
        stale-index-after-GC-address-reuse failure mode of the earlier
        ``id()``-keyed cache is structurally impossible — and any other
        layer joining the same relation reuses the same table.
        """
        if relation.has_index(key_columns):
            self.stats.index_reuses += 1
        else:
            self.stats.index_builds += 1
        return relation.index_on(key_columns)


# -- SQL rendering ----------------------------------------------------------------


def fixpoint_to_sql(fixpoint: Fixpoint, view_name: str = "constant_part") -> str:
    """Render a fixpoint as an indicative ``WITH RECURSIVE`` query.

    The rendering is documentation-oriented (it shows what is shipped to the
    per-worker engine); it is not parsed back.
    """
    if not isinstance(fixpoint, Fixpoint):
        raise DistributionError("fixpoint_to_sql expects a fixpoint term")
    decomposition = decompose(fixpoint)
    variable = decomposition.variable_part
    variable_text = term_to_string(variable) if variable is not None else "<none>"
    return (
        f"WITH RECURSIVE {fixpoint.var} AS (\n"
        f"    SELECT * FROM {view_name}\n"
        f"  UNION\n"
        f"    -- variable part: {variable_text}\n"
        f"    SELECT * FROM step({fixpoint.var})\n"
        f")\n"
        f"SELECT * FROM {fixpoint.var};"
    )
