"""``read-write``: single-edge churn commits between maintained reads.

One in-process session with synchronous view maintenance serves a
``knows`` chain with forward shortcuts.  Each round commits one edge and
then makes two reads.  Three reads in four go to the transitive closure
(as ``?x knows+ ?y`` or with its head swapped), whose cached results the
commit maintains, so these reads replan and hit.  The fourth is a
single-source closure whose plan shape maintenance skips, so it replans
and recomputes.  Reads outnumber commits 2:1.

The churn keeps the data around a fixed base: three rounds each insert one
edge and the fourth commit removes all three, so the closure size does not
drift over a run.  Inserted edges are seeded: a backward edge (closing a
short cycle) or a forward shortcut.  Inserts maintain by resuming the
fixpoint, the removal by delete-and-rederive, so ``commit_p50_ms`` follows
the first and ``commit_p90_ms`` the second.  This is the only workload that loads
snapshot commits and ``service.view_maintenance``; maintenance runs the
semi-naive loop through the centralized evaluator, not the kernels.
"""

from __future__ import annotations

import random
import time

from repro import LabeledGraph, Session, get_registry
from repro.errors import ReproError

from .common import (Checks, NoSpans, Pace, SpanRecorder, median,
                     peak_rss_mb, quantile, same_rows, timed_at_reference)
from .stages import (StageTotals, commit_figures, counter_delta,
                     fixpoint_profile, kernel_counters, staged_query)

CHAIN = 80
SHORTCUT_EVERY = 4
SHORTCUT_SPAN = 5
#: Longest backward edge the churn inserts (a cycle of at most this + 1).
MAX_BACK_SPAN = 6
#: Single-edge inserts per churn cycle; one commit then removes them all.
CHURN_INSERTS = 3
#: Rounds per timed block (two churn cycles); ``wall_s`` is the median
#: block time.
BLOCK_ROUNDS = 8
#: Fewest blocks a run makes; ``comm_tuples`` is the median block of
#: these first ones, so it is exact for a seed.
MIN_BLOCKS = 10
#: A fresh recompute checks both reads every this many rounds.
CHECK_EVERY = 8
#: Set-ups before the first block; one more follows every block, and
#: ``setup_s`` is the median of them all.
SETUP_REPEATS = 3
CLOSURE = "?x,?y <- ?x knows+ ?y"
#: The same closure with its head swapped: a second maintained view.
SWAPPED = "?x,?y <- ?y knows+ ?x"
SINGLE_SOURCE = "?y <- n2 knows+ ?y"
READS = (CLOSURE, SWAPPED, SINGLE_SOURCE)
#: The two reads of even and of odd rounds: three maintained reads (cache
#: hits) for every recomputed one, so the median read is a hit.
ROUND_READS = ((CLOSURE, SINGLE_SOURCE), (SWAPPED, CLOSURE))


def build_graph(seed: int) -> LabeledGraph:
    rng = random.Random(f"read-write-graph:{seed}")
    triples = [(f"n{index}", "knows", f"n{index + 1}")
               for index in range(CHAIN)]
    for start in range(0, CHAIN - SHORTCUT_SPAN, SHORTCUT_EVERY):
        source = start + rng.randrange(SHORTCUT_EVERY)
        if source + SHORTCUT_SPAN <= CHAIN:
            triples.append((f"n{source}", "knows",
                            f"n{source + SHORTCUT_SPAN}"))
    graph = LabeledGraph(name="read-write")
    graph.add_edges(triples)
    return graph


def churn(seed: int, rounds: int) -> list[tuple[bool, list]]:
    """``(adding, edges)`` per round: three single-edge inserts, then one
    commit that removes all three again."""
    rng = random.Random(f"read-write-churn:{seed}")
    ops = []
    while len(ops) < rounds:
        inserted = []
        while len(inserted) < CHURN_INSERTS:
            if rng.random() < 0.5:
                target = rng.randrange(CHAIN - MAX_BACK_SPAN)
                source = target + rng.randint(2, MAX_BACK_SPAN)
            else:
                source = rng.randrange(CHAIN - 8)
                target = source + rng.randint(2, 8)
            edge = (f"n{source}", f"n{target}")
            if edge not in inserted:
                inserted.append(edge)
        ops += [(True, [edge]) for edge in inserted]
        ops.append((False, inserted))
    return ops[:rounds]


def setup(seed: int) -> Session:
    """Session over the seeded graph, caches warmed with both reads."""
    session = Session(build_graph(seed), view_maintenance="sync")
    for text in READS:
        session.ucrpq(text).collect()
    return session


def timed_setup(seed: int, samples: list[float]) -> Session:
    return timed_at_reference(lambda: setup(seed), samples)


def build(seed: int, samples: list[float]) -> Session:
    """Set up :data:`SETUP_REPEATS` times and keep the last session."""
    for _ in range(SETUP_REPEATS - 1):
        timed_setup(seed, samples).close()
    return timed_setup(seed, samples)


class Rounds:
    """Runs commit + two reads per round and keeps every sample."""

    def __init__(self, session: Session, seed: int, checks: Checks,
                 spans=None):
        self.session = session
        self.checks = checks
        self.spans = spans if spans is not None else NoSpans()
        self.traced = spans is not None
        self.ops = churn(seed, 100_000)
        self.done = 0
        self.commits: list[float] = []
        self.reads: list[float] = []
        #: ``commits`` and ``reads`` at the reference speed.
        self.scaled_commits: list[float] = []
        self.scaled_reads: list[float] = []
        self.read_hits = 0
        self.totals = StageTotals()
        self.maintain: list[float] = []
        self.decisions = {"resumed": 0, "rederived": 0, "fallbacks": 0,
                          "skipped": 0, "examined": 0}

    def block(self, rounds: int) -> dict:
        """``rounds`` rounds, each followed by calibration probes; returns
        their wall and reported time at the reference speed of the
        block's probes (see ``common.Pace``), and their raw wall time."""
        wall = adjust = 0.0
        comm_before = self.totals.counts.comm_tuples
        first_commit, first_read = len(self.commits), len(self.reads)
        pace = Pace()
        for _ in range(rounds):
            seconds, round_adjust = self.one_round()
            wall += seconds
            adjust += round_adjust
            pace.follow(seconds)
            if self.done % CHECK_EVERY == 0:
                self.check()
        factor = pace.factor()
        self.scaled_commits += [commit * factor
                                for commit in self.commits[first_commit:]]
        self.scaled_reads += [read * factor
                              for read in self.reads[first_read:]]
        return {"raw": wall, "wall": wall * factor,
                "reported": wall * factor + adjust, "factor": factor,
                "comm": self.totals.counts.comm_tuples - comm_before}

    def one_round(self) -> tuple[float, float]:
        adding, edges = self.ops[self.done]
        self.done += 1
        request = f"round{self.done}"
        previous = self.session.last_maintenance
        started = time.perf_counter()
        with self.spans.span("data.commit", request) as span:
            if adding:
                self.session.add_edges("knows", edges)
            else:
                self.session.remove_edges("knows", edges)
        commit = time.perf_counter() - started
        self.commits.append(commit)
        wall, adjust = commit, 0.0
        stats = self.session.last_maintenance
        if stats is not None and stats is not previous:
            maintain = sum(decision.elapsed_seconds
                           for decision in stats.decisions)
            self.maintain.append(maintain)
            for name in self.decisions:
                self.decisions[name] += getattr(stats, name)
            if span is not None:
                # Maintenance runs inside the commit call, after the swap.
                self.spans.add("service.maintain", span.end - maintain,
                               span.end, span)
        for text in ROUND_READS[self.done % 2]:
            started = time.perf_counter()
            try:
                if self.traced:
                    outcome = staged_query(self.session, text, self.spans,
                                           request, use_result_cache=True)
                else:
                    handle = self.session.ucrpq(text)
                    result = handle.collect()
                    hit = handle.last_result_cache_hit
            except ReproError as error:
                self.checks.record(False, f"round {self.done}: {text}: "
                                          f"{error}")
                continue
            seconds = time.perf_counter() - started
            self.reads.append(seconds)
            wall += seconds
            if self.traced:
                self.totals.add(outcome)
                hit = outcome.result_hit
                adjust += outcome.reported_adjust_s
            elif not hit:
                read_adjust = self.session.cluster.reported_time_adjustment
                adjust += read_adjust
                self.totals.counts.add(result.metrics, read_adjust)
            self.read_hits += bool(hit)
        return wall, adjust

    def check(self) -> None:
        """Both reads against a fresh centralized recompute of the head."""
        for text in READS:
            served = self.session.ucrpq(text).collect().relation
            fresh = self.session.evaluate_centralized(
                self.session.translate(text))
            self.checks.record(same_rows(served, fresh),
                               f"round {self.done}: {text} differs from a "
                               f"fresh recompute")


def run(seed: int, seconds: float, traced: bool, out_dir) -> tuple:
    setup_samples: list[float] = []
    session = build(seed, setup_samples)
    checks = Checks()
    try:
        if traced:
            return traced_run(session, seed, seconds, checks, out_dir), checks
        rounds = Rounds(session, seed, checks)
        blocks = []
        started = time.perf_counter()
        while (len(blocks) < MIN_BLOCKS
               or time.perf_counter() - started < seconds):
            blocks.append(rounds.block(BLOCK_ROUNDS))
            # One more set-up sample per block spreads them over the run.
            timed_setup(seed, setup_samples).close()
        rounds.check()
    finally:
        session.close()
    wall = median([block["wall"] for block in blocks])
    reads = rounds.scaled_reads
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": wall,
        "reported_s": median([block["reported"] for block in blocks]),
        "comm_tuples": median([block["comm"]
                               for block in blocks[:MIN_BLOCKS]]),
        "throughput_qps": 3 * BLOCK_ROUNDS / wall,
        "latency_p50_ms": median(reads) * 1e3,
        "latency_p99_ms": quantile(reads, 0.99) * 1e3,
        "read_p50_ms": median(reads) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        **commit_figures(rounds.scaled_commits),
        "raw.wall_s": median([block["raw"] for block in blocks]),
        "host.speed_factor": median([block["factor"] for block in blocks]),
        "samples.blocks": len(blocks),
        "samples.reads": len(rounds.reads),
        "samples.commits": len(rounds.commits),
    }
    return metrics, checks


def traced_run(session: Session, seed: int, seconds: float, checks: Checks,
               out_dir) -> dict[str, float]:
    """Untraced rounds, then as many traced rounds, then loop profiles."""
    half = max(seconds / 2, 1.0)
    untraced = Rounds(session, seed, checks)
    started = time.perf_counter()
    untraced_blocks = []
    while not untraced_blocks or time.perf_counter() - started < half:
        untraced_blocks.append(untraced.block(BLOCK_ROUNDS))
    spans = SpanRecorder()
    traced = Rounds(session, seed, checks, spans)
    traced.ops = untraced.ops[untraced.done:]
    registry_before = kernel_counters(get_registry().snapshot())
    traced_blocks = [traced.block(BLOCK_ROUNDS)
                     for _ in range(len(untraced_blocks))]
    kernels = counter_delta(registry_before,
                            kernel_counters(get_registry().snapshot()))
    traced.check()
    profile = fixpoint_profile((session, text) for text in READS)
    spans.write(out_dir / f"read-write-seed{seed}-spans.jsonl")
    untraced_wall = median([block["raw"] for block in untraced_blocks])
    traced_wall = median([block["raw"] for block in traced_blocks])
    decisions = traced.decisions
    commit_bare = [commit - maintain for commit, maintain
                   in zip(traced.commits, traced.maintain)]
    metrics = traced.totals.layer_metrics(spans)
    metrics.update(profile.layer_metrics())
    metrics.update(kernels)
    metrics.update({
        "data.commit_bare_ms": median(commit_bare) * 1e3,
        "service.maintain_ms": median(traced.maintain) * 1e3,
        "service.resumed": decisions["resumed"],
        "service.rederived": decisions["rederived"],
        "service.fallbacks": decisions["fallbacks"],
        "service.skipped": decisions["skipped"],
        "service.maintained_ratio": ((decisions["resumed"]
                                      + decisions["rederived"])
                                     / max(decisions["examined"], 1)),
        "session.read_hit_rate": traced.read_hits / len(traced.reads),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return metrics
