"""Unit tests of the columnar layer: value dictionaries, encoded
relations, the delta accumulator and the engine switch."""

from __future__ import annotations

import pickle
import threading
from array import array

from repro.data.columnar import (SNAPSHOT_DICTIONARY_KEY, ColumnarBatch,
                                 ColumnarDeltaAccumulator, ColumnarRelation,
                                 ValueDictionary, columnar_enabled, row_mode,
                                 set_columnar_enabled, snapshot_dictionary)
from repro.data.relation import Relation
from repro.data.snapshot import DatabaseSnapshot


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


class TestValueDictionary:
    def test_interns_each_value_once(self):
        dictionary = ValueDictionary()
        a = dictionary.encode("a")
        b = dictionary.encode("b")
        assert a != b
        assert dictionary.encode("a") == a
        assert len(dictionary) == 2
        assert dictionary.decode(a) == "a"
        assert dictionary.lookup("b") == b
        assert dictionary.lookup("missing") is None

    def test_encode_column_matches_encode(self):
        dictionary = ValueDictionary()
        codes = dictionary.encode_column(["x", "y", "x", "z"])
        assert isinstance(codes, array)
        assert list(codes) == [dictionary.encode(v)
                               for v in ("x", "y", "x", "z")]

    def test_concurrent_interning_assigns_unique_codes(self):
        dictionary = ValueDictionary()
        results = {}

        def intern(worker):
            results[worker] = [dictionary.encode(i % 50) for i in range(500)]

        threads = [threading.Thread(target=intern, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(dictionary) == 50
        first = results[0]
        assert all(results[w] == first for w in results)

    def test_pickle_round_trip_keeps_codes(self):
        dictionary = ValueDictionary()
        codes = {v: dictionary.encode(v) for v in ("a", "b", "c")}
        clone = pickle.loads(pickle.dumps(dictionary))
        assert all(clone.encode(v) == code for v, code in codes.items())
        # And the clone can keep interning new values.
        assert clone.encode("d") == len(codes)


class TestSnapshotDictionary:
    def test_snapshot_memoizes_one_dictionary(self):
        snapshot = DatabaseSnapshot({"E": edges([(1, 2)])})
        first = snapshot_dictionary(snapshot)
        assert snapshot_dictionary(snapshot) is first
        assert snapshot.derived(SNAPSHOT_DICTIONARY_KEY,
                                lambda _: None) is first

    def test_plain_dict_gets_fresh_dictionary(self):
        database = {"E": edges([(1, 2)])}
        assert snapshot_dictionary(database) is not snapshot_dictionary(database)


class TestColumnarRelation:
    def test_round_trip_is_identity(self):
        relation = edges([(1, 2), (2, 3), (3, 1)])
        encoded = relation.columnar(ValueDictionary())
        assert len(encoded) == 3
        assert encoded.to_relation() == relation

    def test_empty_relation_round_trips(self):
        relation = Relation.empty(("src", "trg"))
        encoded = ColumnarRelation.from_relation(relation, ValueDictionary())
        assert len(encoded) == 0
        assert encoded.to_relation() == relation

    def test_wide_relation_round_trips(self):
        relation = Relation.from_dicts(
            [{"a": 1, "b": 2, "c": 3}, {"a": 4, "b": 5, "c": 6}])
        encoded = relation.columnar(ValueDictionary())
        assert encoded.to_relation() == relation

    def test_encoding_is_memoized_per_dictionary(self):
        relation = edges([(1, 2)])
        dictionary = ValueDictionary()
        assert relation.columnar(dictionary) is relation.columnar(dictionary)
        other = ValueDictionary()
        assert relation.columnar(other) is not relation.columnar(dictionary)

    def test_index_on_is_memoized_and_maps_codes_to_rows(self):
        dictionary = ValueDictionary()
        encoded = edges([(1, 2), (1, 3), (2, 3)]).columnar(dictionary)
        assert not encoded.has_index((0,))
        index = encoded.index_on((0,))
        assert encoded.has_index((0,))
        assert encoded.index_on((0,)) is index
        rows_of_one = index[dictionary.encode(1)]
        assert len(rows_of_one) == 2

    def test_pickle_drops_index_cache_but_keeps_columns(self):
        dictionary = ValueDictionary()
        encoded = edges([(1, 2), (2, 3)]).columnar(dictionary)
        encoded.index_on((0,))
        clone = pickle.loads(pickle.dumps(encoded))
        assert not clone.has_index((0,))
        assert clone.to_relation() == encoded.to_relation()


class TestColumnarDeltaAccumulator:
    def _batch(self, rows):
        columns = list(zip(*rows)) if rows else [[], []]
        return ColumnarBatch(("src", "trg"),
                             [array("q", column) for column in columns])

    def test_absorb_returns_only_new_rows(self):
        accumulator = ColumnarDeltaAccumulator(self._batch([(0, 1), (1, 2)]))
        delta = accumulator.absorb(self._batch([(1, 2), (2, 3), (2, 3)]))
        assert sorted(zip(*delta.arrays)) == [(2, 3)]
        assert len(accumulator) == 3

    def test_absorb_of_known_rows_returns_empty_batch(self):
        accumulator = ColumnarDeltaAccumulator(self._batch([(0, 1)]))
        delta = accumulator.absorb(self._batch([(0, 1)]))
        assert len(delta) == 0
        assert delta.columns == ("src", "trg")

    def test_relation_decodes_accumulated_rows_once(self):
        dictionary = ValueDictionary()
        seed = edges([(0, 1), (1, 2)]).columnar(dictionary)
        accumulator = ColumnarDeltaAccumulator(seed.batch())
        accumulator.absorb(self._batch(
            [(dictionary.encode(0), dictionary.encode(2))]))
        assert accumulator.relation(dictionary) == edges(
            [(0, 1), (1, 2), (0, 2)])

    def test_wide_rows_decode_through_the_generic_path(self):
        dictionary = ValueDictionary()
        relation = Relation.from_dicts([{"a": 1, "b": 2, "c": 3}])
        encoded = relation.columnar(dictionary)
        accumulator = ColumnarDeltaAccumulator(encoded.batch())
        assert accumulator.relation(dictionary) == relation


class TestEngineSwitch:
    def test_columnar_enabled_by_default(self):
        assert columnar_enabled()

    def test_row_mode_disables_and_restores(self):
        with row_mode():
            assert not columnar_enabled()
        assert columnar_enabled()

    def test_set_columnar_enabled_returns_previous(self):
        assert set_columnar_enabled(False) is True
        try:
            assert not columnar_enabled()
        finally:
            set_columnar_enabled(True)
