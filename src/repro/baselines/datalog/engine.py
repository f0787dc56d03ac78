"""Semi-naive evaluation of positive Datalog programs.

This is the evaluation core of the BigDatalog baseline: a bottom-up,
set-oriented, semi-naive engine.  Facts are tuples stored per predicate;
rule bodies are evaluated left-to-right with hash indexes on the bound
argument positions.  Recursive predicates are evaluated with deltas (only
rules with at least one delta occurrence re-fire), exactly like the
differential evaluation of Algorithm 1 in the paper.

The indexes over the full (non-delta) fact sets are **incremental**: they
come from the shared storage layer (:class:`repro.data.storage.HashIndex`),
are built once per (predicate, bound positions) and are *extended* with the
new facts of each iteration instead of being rebuilt from scratch — the
Datalog mirror of the delta-aware relation storage.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from ...data.storage import HashIndex
from ...errors import DatalogError
from .ast import Atom, Const, Program, Rule, Var

FactSet = set[tuple]
Database = dict[str, FactSet]


@dataclass
class DatalogStats:
    """Counters describing one program evaluation."""

    iterations: int = 0
    facts_derived: int = 0
    rule_firings: int = 0
    index_builds: int = 0
    index_reuses: int = 0
    per_predicate_sizes: dict[str, int] = field(default_factory=dict)

    def record_sizes(self, facts: Mapping[str, FactSet]) -> None:
        self.per_predicate_sizes = {name: len(rows) for name, rows in facts.items()}


class SemiNaiveEngine:
    """Bottom-up semi-naive Datalog evaluation."""

    def __init__(self, max_facts: int | None = None):
        #: Optional budget on the total number of derived facts; exceeding it
        #: raises, which the benchmark harness reports as an out-of-memory
        #: failure (the red crosses of the paper's charts).
        self.max_facts = max_facts
        self.stats = DatalogStats()
        #: predicate -> bound positions -> incremental index over the
        #: predicate's full fact set.  Reset per evaluation; extended (not
        #: rebuilt) as new facts are derived.
        self._fact_indexes: dict[str, dict[tuple[int, ...], HashIndex]] = {}
        #: predicate -> arity its cached indexes were validated against;
        #: rows arriving later through the extend path are checked too.
        self._index_arity: dict[str, int] = {}

    # -- Public API -----------------------------------------------------------

    def evaluate(self, program: Program, edb: Mapping[str, Iterable[tuple]]) -> Database:
        """Evaluate ``program`` over the extensional database ``edb``.

        Returns the full database (EDB + derived IDB predicates).
        """
        for rule in program.rules:
            if rule.negative_body():
                raise DatalogError(
                    f"the semi-naive engine evaluates positive programs "
                    f"only; rule has a negated literal: {rule}")
        facts: Database = {name: set(map(tuple, rows)) for name, rows in edb.items()}
        self._fact_indexes = {}
        self._index_arity = {}
        idb = program.idb_predicates()
        for predicate in idb:
            facts.setdefault(predicate, set())
        # Facts written directly in the program.
        for rule in program.rules:
            if rule.is_fact:
                facts[rule.head.predicate].add(self._ground_fact(rule.head))
        deltas: Database = {predicate: set(facts[predicate]) for predicate in idb}
        # First round: fire every rule on the full database.
        for rule in program.rules:
            if rule.is_fact:
                continue
            produced = self._fire(rule, facts, None, None)
            new = produced - facts[rule.head.predicate]
            facts[rule.head.predicate] |= new
            self._extend_indexes(rule.head.predicate, new)
            deltas[rule.head.predicate] |= new
        self.stats.iterations += 1
        self._check_budget(facts)
        # Semi-naive loop.
        while any(deltas[predicate] for predicate in idb):
            self.stats.iterations += 1
            new_deltas: Database = {predicate: set() for predicate in idb}
            for rule in program.rules:
                if rule.is_fact:
                    continue
                recursive_atoms = [atom for atom in rule.body
                                   if atom.predicate in idb and deltas[atom.predicate]]
                if not recursive_atoms:
                    continue
                for pivot_index, atom in enumerate(rule.body):
                    if atom.predicate not in idb or not deltas[atom.predicate]:
                        continue
                    produced = self._fire(rule, facts, pivot_index,
                                           deltas[atom.predicate])
                    new = produced - facts[rule.head.predicate]
                    if new:
                        facts[rule.head.predicate] |= new
                        self._extend_indexes(rule.head.predicate, new)
                        new_deltas[rule.head.predicate] |= new
            deltas = new_deltas
            self._check_budget(facts)
        self.stats.record_sizes(facts)
        return facts

    # -- Rule firing -------------------------------------------------------------

    def _fire(self, rule: Rule, facts: Database, pivot_index: int | None,
              pivot_delta: FactSet | None) -> FactSet:
        """Evaluate one rule body and return the produced head facts.

        When ``pivot_index`` is given, that body atom reads from
        ``pivot_delta`` instead of the full predicate (semi-naive firing).
        """
        self.stats.rule_firings += 1
        bindings: list[dict[Var, object]] = [{}]
        for index, atom in enumerate(rule.body):
            if not bindings:
                return set()
            if index == pivot_index and pivot_delta is not None:
                # Delta sets are one-iteration transients: indexed ad hoc,
                # never cached.
                bindings = self._match_atom(atom, pivot_delta, bindings)
            else:
                bindings = self._match_atom(atom, facts.get(atom.predicate, set()),
                                            bindings, store_predicate=atom.predicate)
        produced: FactSet = set()
        for binding in bindings:
            produced.add(self._instantiate(rule.head, binding))
        self.stats.facts_derived += len(produced)
        return produced

    def _match_atom(self, atom: Atom, rows: FactSet,
                    bindings: list[dict[Var, object]],
                    store_predicate: str | None = None) -> list[dict[Var, object]]:
        """Extend every binding with the matches of one atom.

        The bound positions are the same for every binding (they depend on
        which variables previous atoms introduced), so the fact set is
        indexed on them once.  For persistent predicates
        (``store_predicate``) the index comes from the incremental
        per-predicate cache: built on the first firing that needs it,
        extended in O(|new facts|) as the evaluation derives more.
        """
        if not bindings:
            return []
        sample = bindings[0]
        bound_positions = []
        for position, arg in enumerate(atom.args):
            if isinstance(arg, Const) or (isinstance(arg, Var) and arg in sample):
                bound_positions.append(position)
        index = self._index_for(atom, rows, tuple(bound_positions),
                                store_predicate)
        results: list[dict[Var, object]] = []
        for binding in bindings:
            key = tuple(
                atom.args[i].value if isinstance(atom.args[i], Const)
                else binding[atom.args[i]]
                for i in bound_positions
            )
            for row in index.probe(key):
                extended = self._extend(atom, row, binding)
                if extended is not None:
                    results.append(extended)
        return results

    # -- Incremental fact indexes ------------------------------------------------

    def _index_for(self, atom: Atom, rows: FactSet,
                   positions: tuple[int, ...],
                   store_predicate: str | None) -> HashIndex:
        """Index ``rows`` on ``positions``, caching persistent predicates."""
        if store_predicate is None:
            self._check_arity(atom, rows)
            return HashIndex(rows, positions)
        per_predicate = self._fact_indexes.setdefault(store_predicate, {})
        index = per_predicate.get(positions)
        if index is None:
            self._check_arity(atom, rows)
            self._index_arity.setdefault(store_predicate, atom.arity)
            index = HashIndex(rows, positions)
            per_predicate[positions] = index
            self.stats.index_builds += 1
        else:
            self.stats.index_reuses += 1
        return index

    def _extend_indexes(self, predicate: str, new_rows: FactSet) -> None:
        """Delta-maintain every cached index of a predicate that just grew.

        Rows entering a cached index after its build are validated here, so
        an arity-inconsistent program fails with the same clear
        :class:`DatalogError` the per-match validation used to raise.
        """
        if not new_rows:
            return
        indexes = self._fact_indexes.get(predicate)
        if not indexes:
            return
        arity = self._index_arity.get(predicate)
        if arity is not None:
            for row in new_rows:
                if len(row) != arity:
                    raise DatalogError(
                        f"fact {row!r} does not match arity {arity} of "
                        f"predicate {predicate!r}")
        for index in indexes.values():
            index.extend(new_rows)

    @staticmethod
    def _check_arity(atom: Atom, rows: FactSet) -> None:
        for row in rows:
            if len(row) != atom.arity:
                raise DatalogError(
                    f"fact {row!r} does not match arity of {atom}")

    @staticmethod
    def _extend(atom: Atom, row: tuple,
                binding: dict[Var, object]) -> dict[Var, object] | None:
        extended = dict(binding)
        for arg, value in zip(atom.args, row):
            if isinstance(arg, Const):
                if arg.value != value:
                    return None
            else:
                if arg in extended and extended[arg] != value:
                    return None
                extended[arg] = value
        return extended

    @staticmethod
    def _instantiate(head: Atom, binding: dict[Var, object]) -> tuple:
        values = []
        for arg in head.args:
            if isinstance(arg, Const):
                values.append(arg.value)
            else:
                values.append(binding[arg])
        return tuple(values)

    @staticmethod
    def _ground_fact(head: Atom) -> tuple:
        values = []
        for arg in head.args:
            if not isinstance(arg, Const):
                raise DatalogError(f"fact {head} contains variables")
            values.append(arg.value)
        return tuple(values)

    def _check_budget(self, facts: Database) -> None:
        if self.max_facts is None:
            return
        total = sum(len(rows) for rows in facts.values())
        if total > self.max_facts:
            raise DatalogError(
                f"fact budget exceeded ({total} > {self.max_facts}): the "
                f"evaluation would not fit in memory"
            )
