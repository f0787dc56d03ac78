"""Speedup of the columnar execution kernels over the indexed row engine.

The columnar layer (``repro.data.columnar`` + ``repro.algebra.kernels``)
compiles the variable part of a fixpoint once into a chain of
operator-at-a-time kernels and runs the semi-naive loop on
dictionary-encoded integer columns: joins probe code indexes and gather
with C-speed ``map``, renames and projections are column permutations,
and dedup happens in one packed-key set per iteration.

This benchmark runs a transitive-closure workload — a long chain with
shortcut edges — in both modes: the default columnar kernels and the
indexed row engine (``repro.data.columnar.row_mode``, the optimized,
delta-aware row path — a deliberately strong baseline).  The
headline assertion is a >= 2x speedup with bit-identical results.  A
second pair of runs compares the two modes on one Uniprot workload query
through the full Session pipeline, and the observed numbers are written
to ``benchmarks/results/BENCH_columnar.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.algebra import RelVar, closure, evaluate
from repro.bench import MeasuredRun, run_distmura
from repro.data import Relation, row_mode
from repro.obs.metrics import get_registry
from repro.workloads import uniprot_queries

RESULTS_DIR = Path(__file__).parent / "results"

FIGURE_TITLE = "Columnar kernel speedup - kernels vs indexed row engine"

#: Chain length: recursion depth of the closure (and the number of
#: semi-naive iterations).
CHAIN_LENGTH = 320
#: Extra forward edges to thicken the deltas a little.
EXTRA_EDGES = 80
#: Required speedup of the columnar kernels (acceptance bar of the
#: columnar-execution work; the stretch goal is 5x).
SPEEDUP_FLOOR = 2.0
#: Uniprot query compared through the full Session pipeline.  Q47 is the
#: unselective query of the quick subset: its fixpoint produces tens of
#: thousands of rows, so the semi-naive loop (not parse/optimize
#: overhead) dominates its runtime.
UNIPROT_QID = "Q47"

COLUMNAR = "columnar-kernels"
ROW = "indexed-row"

#: (workload, mode) -> MeasuredRun, filled by the matrix tests, read by
#: the assertion/report tests.
_RESULTS: dict[tuple[str, str], MeasuredRun] = {}


@pytest.fixture(scope="module")
def chain_database():
    """A chain with shortcut edges: deep recursion, quadratic closure."""
    pairs = [(i, i + 1) for i in range(CHAIN_LENGTH)]
    step = max(2, CHAIN_LENGTH // EXTRA_EDGES)
    pairs += [(i, i + 2) for i in range(0, CHAIN_LENGTH - 2, step)]
    return {"E": Relation.from_pairs(pairs, columns=("src", "trg"))}


@pytest.fixture(scope="module")
def closure_term():
    return closure(RelVar("E"), var="X")


def _measure(mode: str, database, term) -> MeasuredRun:
    started = time.perf_counter()
    if mode == ROW:
        with row_mode():
            relation = evaluate(term, database)
    else:
        relation = evaluate(term, database)
    elapsed = time.perf_counter() - started
    return MeasuredRun(system=mode, query_id="TC",
                       dataset=f"chain-{CHAIN_LENGTH}",
                       seconds=elapsed, rows=len(relation))


@pytest.mark.parametrize("mode", (COLUMNAR, ROW))
def test_transitive_closure_both_modes(benchmark, figure_report,
                                       chain_database, closure_term, mode):
    compiles = get_registry().counter("repro_kernel_compiles_total")
    before = compiles.value
    measured = benchmark.pedantic(
        lambda: _measure(mode, chain_database, closure_term),
        rounds=1, iterations=1)
    figure_report.add(measured)
    _RESULTS[("TC", mode)] = measured
    assert measured.rows > CHAIN_LENGTH  # the closure is much bigger than E
    if mode == COLUMNAR:
        # Prove the kernels actually ran (no silent row-engine fallback).
        assert compiles.value > before


def test_modes_agree_and_speedup_exceeds_floor(figure_report, chain_database,
                                               closure_term):
    columnar = _RESULTS.get(("TC", COLUMNAR))
    row = _RESULTS.get(("TC", ROW))
    if columnar is None or row is None:
        pytest.skip("mode runs were deselected")
    assert columnar.rows == row.rows
    speedup = row.seconds / columnar.seconds
    figure_report.add_section(
        f"TC speedup (indexed-row / columnar-kernels): {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar kernels are only {speedup:.2f}x faster than the "
        f"indexed row engine (floor {SPEEDUP_FLOOR}x)")


@pytest.mark.parametrize("mode", (COLUMNAR, ROW))
def test_uniprot_query_both_modes(benchmark, figure_report, uniprot_small,
                                  mode):
    """One workload query through the full Session pipeline, both modes."""
    query = {q.qid: q for q in
             uniprot_queries(uniprot_small, subset=(UNIPROT_QID,))}[UNIPROT_QID]

    def run() -> MeasuredRun:
        if mode == ROW:
            with row_mode():
                measured = run_distmura(uniprot_small, query)
        else:
            measured = run_distmura(uniprot_small, query)
        return MeasuredRun(system=mode, query_id=UNIPROT_QID,
                           dataset=uniprot_small.name,
                           seconds=measured.seconds, rows=measured.rows,
                           status=measured.status)

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    figure_report.add(measured)
    _RESULTS[(UNIPROT_QID, mode)] = measured
    assert measured.succeeded


def test_uniprot_modes_agree_and_json_report(figure_report):
    """Both modes agree on Uniprot; dump every observed number to JSON."""
    columnar = _RESULTS.get((UNIPROT_QID, COLUMNAR))
    row = _RESULTS.get((UNIPROT_QID, ROW))
    if columnar is not None and row is not None:
        assert columnar.rows == row.rows
        speedup = row.seconds / columnar.seconds
        figure_report.add_section(
            f"{UNIPROT_QID} speedup (indexed-row / columnar-kernels): "
            f"{speedup:.2f}x (report-only, full-pipeline time)")

    payload = {
        "title": FIGURE_TITLE,
        "chain_length": CHAIN_LENGTH,
        "speedup_floor": SPEEDUP_FLOOR,
        "runs": [
            {"workload": workload, "mode": mode, "seconds": run.seconds,
             "rows": run.rows}
            for (workload, mode), run in sorted(_RESULTS.items())
        ],
        "speedups": {
            workload: (_RESULTS[(workload, ROW)].seconds
                       / _RESULTS[(workload, COLUMNAR)].seconds)
            for workload in {w for w, _ in _RESULTS}
            if (workload, ROW) in _RESULTS and (workload, COLUMNAR) in _RESULTS
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_columnar.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
