"""Set-semantics relations and the relational operators of mu-RA.

A :class:`Relation` is a set of tuples over a fixed schema (set of column
names).  Internally rows are stored as plain Python tuples of values aligned
with the *sorted* schema — this keeps equality, union and difference cheap
and makes the set semantics of mu-RA (no duplicates) automatic.

Storage discipline (see :mod:`repro.data.storage`): the validating
constructor runs only at ingestion.  Every operator builds its result
through the trusted zero-copy path (:meth:`Relation._from_trusted`) because
operator outputs are aligned by construction, and joins/antijoins probe
per-relation **memoized hash indexes** (:meth:`Relation.index_on`) — built
once, reused for every later join on the same columns, which is what makes
semi-naive loops against a loop-invariant relation cheap.

The class implements every operator of the mu-RA grammar except the fixpoint
(which is a property of terms, not of single relations):

* ``union`` (set union with duplicate elimination),
* ``natural_join``,
* ``antijoin`` (tuples of the left with no join partner on the right),
* ``filter`` (sigma),
* ``rename`` (rho),
* ``antiproject`` (column dropping, pi-tilde),
* plus ``difference``, ``intersection``, ``project`` which are useful
  internally (semi-naive evaluation, baselines, tests).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from ..errors import SchemaError
from .predicates import Eq, Predicate
from .storage import HashIndex
from .tuples import Tup

Row = tuple


class Relation:
    """An immutable relation: a schema plus a set of rows.

    >>> edges = Relation.from_dicts([{"src": 1, "dst": 2}, {"src": 2, "dst": 3}])
    >>> edges.columns
    ('dst', 'src')
    >>> len(edges)
    2
    """

    __slots__ = ("_columns", "_rows", "_index_cache", "_columnar_cache",
                 "_frozen")

    def __init__(self, columns: Iterable[str], rows: Iterable[Row] = ()):  # noqa: D107
        ordered = tuple(sorted(columns))
        if len(set(ordered)) != len(ordered):
            raise SchemaError(f"duplicate column names in schema {ordered}")
        for name in ordered:
            if not isinstance(name, str) or not name:
                raise SchemaError(f"column names must be non-empty strings, got {name!r}")
        self._columns = ordered
        width = len(ordered)
        row_set = set()
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise SchemaError(
                    f"row {row!r} has {len(row)} values but schema {ordered} "
                    f"has {width} columns"
                )
            row_set.add(row)
        self._rows = frozenset(row_set)
        self._index_cache: dict[tuple[str, ...], HashIndex] | None = None
        self._columnar_cache = None

    # -- Constructors -----------------------------------------------------

    @classmethod
    def _from_trusted(cls, columns: tuple[str, ...],
                      rows: frozenset[Row] | Iterable[Row]) -> "Relation":
        """Zero-copy constructor for rows that are aligned by construction.

        ``columns`` must already be the sorted schema tuple and every row a
        tuple of matching width — which is true for the output of every
        operator below.  No validation or re-tupling happens; a frozenset is
        adopted as-is.  External data must go through the validating
        constructor (or :class:`~repro.data.storage.RelationBuilder`).
        """
        relation = cls.__new__(cls)
        relation._columns = columns
        relation._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        relation._index_cache = None
        relation._columnar_cache = None
        return relation

    def _freeze(self) -> None:
        """Mark this relation as snapshot-owned.

        The ``_frozen`` slot stays unset until a relation enters a
        :class:`~repro.data.snapshot.DatabaseSnapshot`; while the
        sanitizer (:mod:`repro.check.sanitizer`) is active, rebinding
        the row/column storage of a frozen relation is poisoned.  The
        memoized index/columnar caches are exempt — they are
        value-idempotent.
        """
        self._frozen = True

    @classmethod
    def from_dicts(cls, dicts: Iterable[Mapping[str, Any]],
                   columns: Iterable[str] | None = None) -> "Relation":
        """Build a relation from an iterable of mapping rows.

        When ``columns`` is not given, the schema is taken from the first
        row; every row must then have exactly that schema.
        """
        dicts = list(dicts)
        if columns is None:
            if not dicts:
                raise SchemaError(
                    "cannot infer a schema from an empty collection of rows; "
                    "pass columns= explicitly"
                )
            columns = tuple(sorted(dicts[0].keys()))
        ordered = tuple(sorted(columns))
        rows = []
        for mapping in dicts:
            if set(mapping.keys()) != set(ordered):
                raise SchemaError(
                    f"row {dict(mapping)!r} does not match schema {ordered}"
                )
            rows.append(tuple(mapping[c] for c in ordered))
        return cls(ordered, rows)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Any, Any]],
                   columns: tuple[str, str] = ("src", "dst")) -> "Relation":
        """Build a binary relation (e.g. a set of graph edges) from pairs."""
        first, second = columns
        ordered = tuple(sorted(columns))
        if ordered == (first, second):
            rows = [tuple(pair) for pair in pairs]
        else:
            rows = [(b, a) for a, b in pairs]
        return cls(ordered, rows)

    @classmethod
    def empty(cls, columns: Iterable[str]) -> "Relation":
        """Return the empty relation over the given schema."""
        return cls(columns, ())

    # -- Pickling ----------------------------------------------------------

    def __getstate__(self) -> tuple:
        # Indexes and columnar encodings are derived data: rebuilt on
        # demand, never shipped (a process-pool task would pay
        # serialization for tables it can rebuild in linear time).
        return (self._columns, self._rows)

    def __setstate__(self, state: tuple) -> None:
        self._columns, self._rows = state
        self._index_cache = None
        self._columnar_cache = None

    # -- Basic accessors ---------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """The (sorted) schema of the relation."""
        return self._columns

    @property
    def arity(self) -> int:
        """Number of columns (the analyzer's authoritative arity)."""
        return len(self._columns)

    @property
    def rows(self) -> frozenset[Row]:
        """The raw rows, aligned with :attr:`columns`."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Tup]:
        columns = self._columns
        for row in self._rows:
            yield Tup(dict(zip(columns, row)))

    def __contains__(self, item: Mapping[str, Any] | Row) -> bool:
        if isinstance(item, Mapping):
            if set(item.keys()) != set(self._columns):
                return False
            item = tuple(item[c] for c in self._columns)
        return tuple(item) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._columns == other._columns and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._columns, self._rows))

    def __repr__(self) -> str:
        return f"Relation(columns={list(self._columns)}, rows={len(self._rows)})"

    def to_dicts(self) -> list[dict[str, Any]]:
        """Return all rows as dictionaries (sorted for deterministic output)."""
        columns = self._columns
        return [dict(zip(columns, row)) for row in sorted(self._rows, key=repr)]

    def to_pairs(self, first: str, second: str) -> set[tuple[Any, Any]]:
        """Return the rows as ``(first, second)`` value pairs."""
        for column in (first, second):
            if column not in self._columns:
                raise SchemaError(f"no column {column!r} in schema {self._columns}")
        i = self._columns.index(first)
        j = self._columns.index(second)
        return {(row[i], row[j]) for row in self._rows}

    def column_values(self, column: str) -> set[Any]:
        """Return the set of distinct values appearing in ``column``."""
        if column not in self._columns:
            raise SchemaError(f"no column {column!r} in schema {self._columns}")
        index = self._columns.index(column)
        return {row[index] for row in self._rows}

    # -- Hash indexes -------------------------------------------------------

    def index_on(self, key_columns: Iterable[str]) -> HashIndex:
        """Return a hash index of the rows on ``key_columns``.

        The index is memoized on the relation (immutable data, so it never
        goes stale): the first call builds it, every later call on the same
        columns returns the cached table.  Joins, antijoins and equality
        filters probe these indexes, so a loop-invariant relation is hashed
        once per key instead of once per iteration.
        """
        key = tuple(key_columns)
        missing = set(key) - set(self._columns)
        if missing:
            raise SchemaError(f"cannot index on missing columns {sorted(missing)} "
                              f"(schema is {self._columns})")
        cache = self._index_cache
        if cache is not None:
            index = cache.get(key)
            if index is not None:
                return index
        position_of = {c: i for i, c in enumerate(self._columns)}
        positions = tuple(position_of[c] for c in key)
        index = HashIndex(self._rows, positions)
        if cache is None:
            cache = self._index_cache = {}
        cache[key] = index
        return index

    def has_index(self, key_columns: Iterable[str]) -> bool:
        """True when an index on ``key_columns`` is already memoized."""
        cache = self._index_cache
        return cache is not None and tuple(key_columns) in cache

    # -- Columnar adoption ---------------------------------------------------

    def columnar(self, dictionary) -> "Any":
        """Return this relation dictionary-encoded as a ColumnarRelation.

        Memoized on the relation exactly like :meth:`index_on`: the first
        call against a given :class:`~repro.data.columnar.ValueDictionary`
        pays the encoding, every later call on the same dictionary returns
        the cached columns — which is what makes the loop-invariant
        relations of a semi-naive fixpoint free to re-adopt per iteration.
        The cache holds one entry (the dictionary of the current snapshot);
        encoding against a different dictionary replaces it.
        """
        from .columnar import ColumnarRelation
        cached = self._columnar_cache
        if cached is not None and cached.dictionary is dictionary:
            return cached
        encoded = ColumnarRelation.from_relation(self, dictionary)
        self._columnar_cache = encoded
        return encoded

    # -- mu-RA operators ----------------------------------------------------

    def union(self, other: "Relation") -> "Relation":
        """Set union; both relations must have the same schema."""
        self._require_same_schema(other, "union")
        return Relation._from_trusted(self._columns, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; both relations must have the same schema."""
        self._require_same_schema(other, "difference")
        return Relation._from_trusted(self._columns, self._rows - other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; both relations must have the same schema."""
        self._require_same_schema(other, "intersection")
        return Relation._from_trusted(self._columns, self._rows & other._rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join on the common columns.

        When the schemas are disjoint this degenerates into a cartesian
        product, which matches the mu-RA semantics of the join operator.
        """
        common = tuple(c for c in self._columns if c in other._columns)
        out_columns = tuple(sorted(set(self._columns) | set(other._columns)))
        if not common:
            combine = _row_combiner(self._columns, other._columns, out_columns)
            right_rows = other._rows
            return Relation._from_trusted(out_columns, frozenset(
                combine(left, right)
                for left in self._rows for right in right_rows))

        # Hash join.  A side that already carries a memoized index on the
        # common columns is the build side regardless of size: probing a
        # prebuilt table beats rebuilding a smaller one, and in semi-naive
        # loops the indexed side is the loop-invariant relation.  Otherwise
        # build on the smaller side, as before.
        if other.has_index(common):
            build, probe = other, self
        elif self.has_index(common):
            build, probe = self, other
        elif len(self) <= len(other):
            build, probe = self, other
        else:
            build, probe = other, self
        index = build.index_on(common)
        probe_position_of = {c: i for i, c in enumerate(probe._columns)}
        probe_positions = tuple(probe_position_of[c] for c in common)
        combine = _row_combiner(probe._columns, build._columns, out_columns)
        rows = set()
        add = rows.add
        for row in probe._rows:
            key = tuple(row[i] for i in probe_positions)
            for match in index.probe(key):
                add(combine(row, match))
        return Relation._from_trusted(out_columns, rows)

    def antijoin(self, other: "Relation") -> "Relation":
        """Return the tuples of ``self`` with no join partner in ``other``.

        The comparison uses the common columns (as in the natural join); the
        result keeps the schema of ``self``.
        """
        common = tuple(c for c in self._columns if c in other._columns)
        if not common:
            # With no common column, any tuple of ``other`` matches: the
            # antijoin is empty unless ``other`` itself is empty.
            return self if not other._rows else Relation._from_trusted(
                self._columns, frozenset())
        position_of = {c: i for i, c in enumerate(self._columns)}
        self_positions = tuple(position_of[c] for c in common)
        # Key membership via the memoized index: shared with joins on the
        # same columns and reused across iterations.
        present = other.index_on(common)
        return Relation._from_trusted(self._columns, frozenset(
            row for row in self._rows
            if tuple(row[i] for i in self_positions) not in present))

    def filter(self, predicate: Predicate) -> "Relation":
        """Keep only the rows satisfying ``predicate`` (sigma operator)."""
        if isinstance(predicate, Eq) and self.has_index((predicate.column,)):
            # Equality filter on an already-indexed column: one probe
            # instead of a scan.  Indexes are never *built* for a filter —
            # a one-off scan is cheaper than hashing the whole relation.
            index = self.index_on((predicate.column,))
            return Relation._from_trusted(
                self._columns, frozenset(index.probe((predicate.value,))))
        check = predicate.compile(self._columns)
        return Relation._from_trusted(self._columns, frozenset(
            row for row in self._rows if check(row)))

    def filter_callable(self, fn: Callable[[dict[str, Any]], bool]) -> "Relation":
        """Filter with an arbitrary Python callable over dictionary rows."""
        columns = self._columns
        return Relation._from_trusted(columns, frozenset(
            row for row in self._rows if fn(dict(zip(columns, row)))))

    def rename(self, old: str, new: str) -> "Relation":
        """Rename column ``old`` to ``new`` (rho operator)."""
        if old not in self._columns:
            raise SchemaError(f"cannot rename missing column {old!r} "
                              f"(schema is {self._columns})")
        if new == old:
            return self
        if new in self._columns:
            raise SchemaError(f"cannot rename {old!r} to existing column {new!r}")
        new_columns = tuple(sorted(new if c == old else c for c in self._columns))
        position_of = {c: i for i, c in enumerate(self._columns)}
        mapping = [position_of[c if c != new else old] for c in new_columns]
        return Relation._from_trusted(new_columns, frozenset(
            tuple(row[i] for i in mapping) for row in self._rows))

    def rename_many(self, mapping: Mapping[str, str]) -> "Relation":
        """Apply several renamings at once (applied simultaneously)."""
        result_columns = []
        for column in self._columns:
            result_columns.append(mapping.get(column, column))
        if len(set(result_columns)) != len(result_columns):
            raise SchemaError(f"renaming {dict(mapping)} creates duplicate columns")
        ordered = tuple(sorted(result_columns))
        if ordered == self._columns and all(
                new == old for old, new in zip(self._columns, result_columns)):
            return self
        position_of = {c: i for i, c in enumerate(self._columns)}
        source_for = {new: old for old, new in zip(self._columns, result_columns)}
        indices = [position_of[source_for[c]] for c in ordered]
        return Relation._from_trusted(ordered, frozenset(
            tuple(row[i] for i in indices) for row in self._rows))

    def antiproject(self, columns: Iterable[str] | str) -> "Relation":
        """Drop the given column(s) (pi-tilde operator), deduplicating rows."""
        if isinstance(columns, str):
            columns = (columns,)
        dropped = set(columns)
        missing = dropped - set(self._columns)
        if missing:
            raise SchemaError(f"cannot drop missing columns {sorted(missing)} "
                              f"(schema is {self._columns})")
        if not dropped:
            return self
        kept = tuple(c for c in self._columns if c not in dropped)
        position_of = {c: i for i, c in enumerate(self._columns)}
        indices = [position_of[c] for c in kept]
        return Relation._from_trusted(kept, frozenset(
            tuple(row[i] for i in indices) for row in self._rows))

    def project(self, columns: Iterable[str]) -> "Relation":
        """Keep only the given columns (classic projection, deduplicated)."""
        kept = tuple(sorted(columns))
        missing = set(kept) - set(self._columns)
        if missing:
            raise SchemaError(f"cannot project on missing columns {sorted(missing)} "
                              f"(schema is {self._columns})")
        if kept == self._columns:
            return self
        position_of = {c: i for i, c in enumerate(self._columns)}
        indices = [position_of[c] for c in kept]
        return Relation._from_trusted(kept, frozenset(
            tuple(row[i] for i in indices) for row in self._rows))

    # -- Partitioning helpers (used by the distributed runtime) -------------

    def split_round_robin(self, parts: int) -> list["Relation"]:
        """Split the relation into ``parts`` chunks of near-equal size."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        buckets: list[list[Row]] = [[] for _ in range(parts)]
        for index, row in enumerate(sorted(self._rows, key=repr)):
            buckets[index % parts].append(row)
        return [Relation._from_trusted(self._columns, frozenset(bucket))
                for bucket in buckets]

    def split_by_columns(self, columns: Iterable[str], parts: int) -> list["Relation"]:
        """Hash-partition the relation on the given columns.

        Two rows that agree on ``columns`` always land in the same part,
        which is the property required by the stable-column partitioning of
        the paper (Section III-B).
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        key_columns = tuple(sorted(columns))
        missing = set(key_columns) - set(self._columns)
        if missing:
            raise SchemaError(f"cannot partition on missing columns {sorted(missing)}")
        extract = _key_extractor(self._columns, key_columns)
        buckets: list[list[Row]] = [[] for _ in range(parts)]
        for row in self._rows:
            buckets[hash(extract(row)) % parts].append(row)
        return [Relation._from_trusted(self._columns, frozenset(bucket))
                for bucket in buckets]

    # -- Internal helpers ----------------------------------------------------

    def _require_same_schema(self, other: "Relation", operation: str) -> None:
        if self._columns != other._columns:
            raise SchemaError(
                f"{operation} requires identical schemas, got "
                f"{self._columns} and {other._columns}"
            )


def _key_extractor(schema: tuple[str, ...], key_columns: tuple[str, ...]):
    """Return a function extracting the values of ``key_columns`` from a row."""
    position_of = {c: i for i, c in enumerate(schema)}
    indices = tuple(position_of[c] for c in key_columns)
    return lambda row: tuple(row[i] for i in indices)


def _row_combiner(left_schema: tuple[str, ...], right_schema: tuple[str, ...],
                  out_schema: tuple[str, ...]):
    """Return a function merging a left row and a right row into an output row.

    Columns present in both schemas take their value from the left row; the
    caller guarantees (via the join key) that both sides agree on them.
    """
    left_position = {c: i for i, c in enumerate(left_schema)}
    right_position = {c: i for i, c in enumerate(right_schema)}
    plan: list[tuple[int, int]] = []
    for column in out_schema:
        position = left_position.get(column)
        if position is not None:
            plan.append((0, position))
        else:
            plan.append((1, right_position[column]))
    return lambda left, right: tuple(
        left[i] if side == 0 else right[i] for side, i in plan
    )
