"""``serve-zipf``: a Zipf-skewed closed loop against the HTTP serving tier.

The server (:mod:`perfbench.server`) runs in its own process.  The client
is this process: :data:`CONNECTIONS` threads, each with its own
``ServiceClient`` keep-alive connection, send the next request of one
shared trace only after their previous reply arrived (a closed loop:
callers wait for each reply).  90% of the requests go to
:data:`HOT_QUERIES`, fewer distinct queries than the 128-entry plan cache
and the 256-entry result cache; among them a 3,600-row transitive closure
and small-result queries.  Every tenth request is a single-source closure
from a distinct ``follows`` node, so each misses both caches, and a seed
always yields the same tail requests.

Set-up (graph generation in the server, server boot, cache warm-up with
every hot query) is timed and excluded from the measured window.  The
window runs in segments with chunks of the commit probe between them.
Every reply is checked against an in-process ``collect()`` of the same
seeded graph, at a snapshot version whose data equals that graph.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro import LabeledGraph, QueryService, Session, get_registry
from repro.net.client import ServiceClient
from repro.net.protocol import json_body

from .common import (Checks, SpanRecorder, counter_totals, median,
                     parse_prometheus, probe_seconds, quantile, speed_factor,
                     timed_at_reference)
from .stages import (PROBE_COMMITS, PROBE_LABEL, CommitProbe, StageTotals,
                     counter_delta, fixpoint_profile, kernel_counters,
                     session_commit, staged_query)

ROOT = Path(__file__).resolve().parent.parent
#: Client connections (= threads); at most ``nproc`` (2) on the reference box.
CONNECTIONS = 2
#: Service worker threads in the server process.
MAX_IN_FLIGHT = 2
KNOWS_NODES = 60
KNOWS_EDGES = 240
FOLLOWS_NODES = 1_200
#: Tail sources are drawn from the nodes at or above this index.
TAIL_FIRST_NODE = 100
#: Every this-many-th request of the trace is a cold-tail request (10%).
TAIL_EVERY = 10
#: Requests per trace block; every block has the same mix.
BLOCK = 100
ZIPF_EXPONENT = 1.1
#: Upper bound on one run's trace; a run normally ends on time first.
MAX_REQUESTS = 12_000
#: Server boots before the window (the last one serves it); one fewer
#: follows the window, and ``setup_s`` is the median of them all.
SETUP_REPEATS = 3
#: The window is cut into this many segments, and a chunk of the commit
#: probe runs after each, so the probe samples the whole run rather than
#: one burst of the host's speed.
SEGMENTS = 10
#: Calibration probes before the first segment and after every segment;
#: the probes on both sides of a segment give its host-speed factor (see
#: ``common.Pace``).
SEGMENT_PROBES = 10
#: Tail requests profiled stage by stage in the traced run.
TRACED_TAIL = 20
#: ``comm_tuples`` counts the first this-many requests of the trace; every
#: run serves more.
COMM_PREFIX = 1_000
#: Requests per block of the window's time and p50 figures.
LATENCY_BLOCK = 100

#: The hot set, most frequent first (Zipf rank order).
HOT_QUERIES = (
    "?y <- k0 knows+ ?y",
    "?x,?y <- ?x knows+ ?y",
    "?x,?y <- ?x knows ?y",
    "?x <- ?x knows k1",
    "?y <- f10 follows+ ?y",
    "?y <- k2 knows/knows ?y",
    "?x <- ?x follows f7",
    "?y <- f99 follows/follows ?y",
    "?y <- k3 knows/knows/knows ?y",
    "?y <- f50 follows ?y",
)
TAIL_TEMPLATE = "?y <- f{} follows+ ?y"
TAIL_CLOSURE = "?x,?y <- ?x follows+ ?y"


def build_graph(seed: int) -> LabeledGraph:
    """``knows``: a ring plus random chords (strongly connected, so its
    closure has exactly 60 x 60 rows); ``follows``: a random recursive tree,
    each node pointing at one earlier node (a few ancestors per node)."""
    rng = random.Random(f"serve-zipf-graph:{seed}")
    edges = {(index, (index + 1) % KNOWS_NODES)
             for index in range(KNOWS_NODES)}
    while len(edges) < KNOWS_EDGES:
        src, trg = rng.randrange(KNOWS_NODES), rng.randrange(KNOWS_NODES)
        if src != trg:
            edges.add((src, trg))
    triples = [(f"k{src}", "knows", f"k{trg}") for src, trg in sorted(edges)]
    triples += [(f"f{node}", "follows", f"f{rng.randrange(node)}")
                for node in range(1, FOLLOWS_NODES)]
    graph = LabeledGraph(name="serve-zipf")
    graph.add_edges(triples)
    return graph


def build_trace(seed: int) -> list[tuple[bool, str]]:
    """``(is_tail, query)`` pairs, in blocks of :data:`BLOCK` requests.

    Every block holds the same mix: each tenth request is a tail request,
    from a source that never repeats within the trace, and the hot
    requests are split over :data:`HOT_QUERIES` in proportion to their
    Zipf weights.  The seed shuffles the order within each block and picks
    the tail sources.
    """
    rng = random.Random(f"serve-zipf-trace:{seed}")
    tail = [node for node in range(TAIL_FIRST_NODE, FOLLOWS_NODES)
            if f"f{node} " not in " ".join(HOT_QUERIES)]
    rng.shuffle(tail)
    hot_block = zipf_block(BLOCK - BLOCK // TAIL_EVERY)
    trace = []
    while len(trace) + BLOCK <= MAX_REQUESTS and len(tail) >= BLOCK:
        hot = list(hot_block)
        rng.shuffle(hot)
        for position in range(BLOCK):
            if position % TAIL_EVERY == TAIL_EVERY - 1:
                trace.append((True, TAIL_TEMPLATE.format(tail.pop())))
            else:
                trace.append((False, hot.pop()))
    return trace


def zipf_block(size: int) -> list[str]:
    """``size`` hot requests split by Zipf weight (largest remainder)."""
    weights = [1.0 / rank ** ZIPF_EXPONENT
               for rank in range(1, len(HOT_QUERIES) + 1)]
    shares = [size * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda index: counts[index] - shares[index])
    for index in by_remainder[: size - sum(counts)]:
        counts[index] += 1
    return [text for text, count in zip(HOT_QUERIES, counts)
            for _ in range(count)]


def canonical_rows(relation) -> list[list]:
    """Rows in the order and shape the server's JSON payload uses."""
    return [list(row) for row in sorted(relation.rows, key=repr)]


class ServerProcess:
    """The server child process; see :mod:`perfbench.server`."""

    def __init__(self, seed: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server", "--seed", str(seed)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError("the benchmark server failed to start")
        self.port = json.loads(line)["port"]

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MiB."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        lines = self.process.stdout.read().splitlines()
        self.process.wait(timeout=60)
        for line in lines:
            if line.startswith("{"):
                return json.loads(line)["peak_rss_mb"]
        raise RuntimeError("the benchmark server exited without a report")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


def boot(seed: int) -> ServerProcess:
    """Start a server and warm its caches with every hot query (twice)."""
    server = ServerProcess(seed)
    try:
        with ServiceClient("127.0.0.1", server.port) as client:
            if client.health()["status"] != "ok":
                raise RuntimeError("the benchmark server is not healthy")
            for _ in range(2):
                for text in HOT_QUERIES:
                    client.query(text)
    except BaseException:
        server.kill()
        raise
    return server


def timed_boot(seed: int, samples: list[float]) -> ServerProcess:
    return timed_at_reference(lambda: boot(seed), samples)


class Reference:
    """The in-process copy of the seeded graph the replies are checked on."""

    def __init__(self, seed: int):
        self.session = Session(build_graph(seed))
        self.hot = {text: canonical_rows(
            self.session.ucrpq(text).collect().relation)
            for text in HOT_QUERIES}
        self.version = self.session.snapshot().version
        self._closure: dict[str, set] | None = None

    def tail_rows(self, text: str) -> set[tuple]:
        """Rows of one tail query, read off one in-process ``collect()`` of
        the whole ``follows`` closure (one execution checks every tail)."""
        if self._closure is None:
            self._closure = {}
            relation = self.session.ucrpq(TAIL_CLOSURE).collect().relation
            for src, trg in relation.rows:
                self._closure.setdefault(src, set()).add((trg,))
        return self._closure.get(text.split()[2], set())


class Replay:
    """The closed loop: connections share one trace and one deadline.

    With ``count_prefix`` set, the window serves at least
    :data:`COMM_PREFIX` requests and pauses once when those have all been
    answered: ``prefix_comm`` records the tuples the server shuffled and
    broadcast for exactly those requests (a ``/metrics`` delta), so it is
    exact for a seed.
    """

    def __init__(self, port: int, trace, reference: Reference,
                 checks: Checks, spans=None, count_prefix: bool = False):
        self.port = port
        self.trace = trace
        self.reference = reference
        self.checks = checks
        self.spans = spans
        self.records: list[dict] = []
        self.tail_rows: list[tuple[str, list]] = []
        self.prefix_comm: float | None = None
        #: Snapshot versions at which the data equals the seeded graph; the
        #: commit probe adds one after each of its chunks.
        self.versions = {reference.version}
        #: Seconds each :data:`LATENCY_BLOCK` consecutive answers took.
        self.block_seconds: list[float] = []
        self._before = scrape(port) if count_prefix else None
        #: The window lasts until both its deadline and this many requests.
        self._minimum = COMM_PREFIX if count_prefix else 0
        self._next = 0
        self._answered = 0
        self._lock = threading.Condition()

    def _take(self, client: ServiceClient, deadline: float) -> int | None:
        with self._lock:
            if self._next == COMM_PREFIX and self._before is not None:
                self._lock.wait_for(lambda: self._answered == COMM_PREFIX)
                if self._before is not None:  # not yet scraped by the other
                    after = parse_prometheus(client.metrics())
                    self.prefix_comm = comm_tuples(self._before, after)
                    self._before = None
            if self._next >= len(self.trace) or (
                    time.perf_counter() >= deadline
                    and self._next >= self._minimum):
                return None
            index = self._next
            self._next += 1
            return index

    def _connection(self, deadline: float) -> None:
        with ServiceClient("127.0.0.1", self.port) as client:
            while (index := self._take(client, deadline)) is not None:
                try:
                    self._request(client, index)
                finally:
                    with self._lock:
                        self._answered += 1
                        self._lock.notify_all()

    def _request(self, client: ServiceClient, index: int) -> None:
        is_tail, text = self.trace[index]
        request_id = f"r{index}"
        started = time.perf_counter()
        try:
            if self.spans is not None:
                with self.spans.span("net.request", request_id) as span:
                    payload = client.query(text)
            else:
                payload = client.query(text)
        except Exception as error:  # any failed request counts, none stops the loop
            self.checks.record(False, f"{text}: {error!r}")
            return
        answered = time.perf_counter()
        latency = answered - started
        timing = payload.get("timing", {})
        if self.spans is not None:
            # The server's own split of the request, nested in the client
            # span: queue wait, then planning + execution.
            server_s = timing.get("latency_seconds", 0.0)
            wait_s = timing.get("queue_wait_seconds", 0.0)
            service_start = span.end - server_s
            self.spans.add("service.queue_wait", service_start,
                           service_start + wait_s, span)
            self.spans.add("service.execute", service_start + wait_s,
                           span.end, span)
        ok = (payload.get("status") == "ok"
              and payload.get("snapshot_version") in self.versions)
        if ok and is_tail:
            with self._lock:
                self.tail_rows.append((text, payload["rows"]))
        elif ok:
            ok = payload["rows"] == self.reference.hot[text]
        self.checks.record(ok, f"{text}: reply differs from collect()")
        cache = payload.get("cache", {})
        record = {"tail": is_tail, "text": text, "latency": latency,
                  "server": timing.get("latency_seconds", 0.0),
                  "queue_wait": timing.get("queue_wait_seconds", 0.0),
                  "service": timing.get("service_seconds", 0.0),
                  "plan_hit": bool(cache.get("plan_hit")),
                  "result_hit": bool(cache.get("result_hit")),
                  "rows": payload.get("row_count", 0), "answered": answered}
        with self._lock:
            self.records.append(record)

    def run(self, seconds: float) -> float:
        """Replay the rest of the trace until ``seconds`` pass; returns
        the wall time of this stretch of the window."""
        started = time.perf_counter()
        first = len(self.records)
        threads = [threading.Thread(target=self._connection,
                                    args=(started + seconds,))
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ends = [started] + [record["answered"]
                            for record in self.records[first:]][
            LATENCY_BLOCK - 1::LATENCY_BLOCK]
        self.block_seconds += [end - start
                               for start, end in zip(ends, ends[1:])]
        return time.perf_counter() - started

    def check_tail(self) -> None:
        """Compare every tail reply with an in-process ``collect()``."""
        for text, rows in self.tail_rows:
            served = {tuple(row) for row in rows}
            self.checks.record(served == self.reference.tail_rows(text),
                               f"{text}: tail reply differs from collect()")


def scrape(port: int) -> dict[str, float]:
    with ServiceClient("127.0.0.1", port) as client:
        return parse_prometheus(client.metrics())


def comm_tuples(before: dict, after: dict) -> float:
    names = ("repro_tuples_shuffled_total", "repro_tuples_broadcast_total")
    return counter_totals(after, *names) - counter_totals(before, *names)


def window_with_probe(replay: Replay, port: int, seconds: float) -> dict:
    """The window in :data:`SEGMENTS` stretches, each followed by
    calibration probes and an even chunk of the commit probe over HTTP.

    Returns the commit figures, and each request's latency and each
    block's time at the reference speed of its segment.  Every second
    probe commit removes the edge the one before added, so after it the
    data equals the seeded graph again; the replay accepts replies at the
    version such a commit returned.
    """
    with ServiceClient("127.0.0.1", port) as client:
        def commit(adding: bool, pair) -> None:
            mutate = client.add_edges if adding else client.remove_edges
            reply = mutate("default", PROBE_LABEL, [list(pair)])
            if not adding:
                replay.versions.add(reply["snapshot_version"])

        probe = CommitProbe(commit)
        probes = [probe_seconds() for _ in range(SEGMENT_PROBES)]
        latencies, blocks, factors = [], [], []
        for _ in range(SEGMENTS):
            first, first_block = len(replay.records), len(replay.block_seconds)
            replay.run(seconds / SEGMENTS)
            after = [probe_seconds() for _ in range(SEGMENT_PROBES)]
            factors.append(speed_factor(probes + after))
            probes = after
            latencies += [record["latency"] * factors[-1]
                          for record in replay.records[first:]]
            blocks += [block * factors[-1]
                       for block in replay.block_seconds[first_block:]]
            for _ in range(PROBE_COMMITS // SEGMENTS):
                probe.step()
        return {"commits": probe.finish(), "latencies": latencies,
                "blocks": blocks, "factor": median(factors)}


def run(seed: int, seconds: float, traced: bool, out_dir) -> tuple:
    trace = build_trace(seed)
    checks = Checks()
    reference = Reference(seed)
    setup_samples: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        timed_boot(seed, setup_samples).stop()
    server = timed_boot(seed, setup_samples)
    try:
        if traced:
            metrics = traced_run(server, trace, reference, checks, seconds,
                                 seed, out_dir)
            server.stop()
            return metrics, checks
        replay = Replay(server.port, trace, reference, checks,
                        count_prefix=True)
        window = window_with_probe(replay, server.port, seconds)
        server_rss = server.stop()
        replay.check_tail()
    except BaseException:
        server.kill()
        raise
    finally:
        reference.session.close()
    # Boots after the window spread the set-up samples over the run.
    for _ in range(SETUP_REPEATS - 1):
        timed_boot(seed, setup_samples).stop()
    latencies = window["latencies"]
    block = median(window["blocks"])
    p50 = median(latencies) * 1e3
    metrics = {
        "setup_s": median(setup_samples),
        "wall_s": block * 1000.0 / LATENCY_BLOCK,
        # The simulated cluster's adjustments happen inside the server and
        # are not exposed over HTTP: reported time equals wall time here.
        "reported_s": block * 1000.0 / LATENCY_BLOCK,
        "comm_tuples": replay.prefix_comm * 1000.0 / COMM_PREFIX,
        "throughput_qps": LATENCY_BLOCK / block,
        "latency_p50_ms": p50,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "read_p50_ms": p50,
        "peak_rss_mb": server_rss,
        **window["commits"],
        "raw.wall_s": median(replay.block_seconds) * 1000.0 / LATENCY_BLOCK,
        "host.speed_factor": window["factor"],
        "samples.requests": len(latencies),
        "samples.commits": PROBE_COMMITS,
    }
    return metrics, checks


def traced_run(server: ServerProcess, trace, reference: Reference,
               checks: Checks, seconds: float, seed: int, out_dir) -> dict:
    """An untraced and a traced half-window, then in-process floors."""
    half = max(seconds / 2, 1.0)
    untraced = Replay(server.port, trace[: len(trace) // 2], reference,
                      checks)
    untraced_wall = untraced.run(half)
    spans = SpanRecorder()
    before = scrape(server.port)
    replay = Replay(server.port, trace[len(trace) // 2:], reference, checks,
                    spans)
    traced_wall = replay.run(half)
    after = scrape(server.port)
    untraced.check_tail()
    replay.check_tail()
    records = replay.records

    def seconds_of(name: str, flat: dict) -> tuple[float, float]:
        route = '{route="/v1/query"}'
        return (flat.get(f"{name}_sum{route}", 0.0),
                flat.get(f"{name}_count{route}", 0.0))

    sum_before, count_before = seconds_of("repro_http_request_seconds", before)
    sum_after, count_after = seconds_of("repro_http_request_seconds", after)
    bytes_total = rows_total = 0
    sizes = {text: len(json_body(_payload_shape(rows)))
             for text, rows in reference.hot.items()}
    for record in records:
        if not record["tail"]:
            bytes_total += sizes[record["text"]]
            rows_total += record["rows"]
    for _, rows in replay.tail_rows:
        bytes_total += len(json_body(_payload_shape(rows)))
        rows_total += len(rows)
    served = max(len(records), 1)
    overheads = [record["latency"] - record["server"] for record in records]
    metrics = {
        "net.overhead_ms": median(overheads) * 1e3,
        "net.server_request_ms": ((sum_after - sum_before)
                                  / max(count_after - count_before, 1) * 1e3),
        "net.response_bytes": bytes_total / served,
        "net.bytes_per_row": bytes_total / max(rows_total, 1),
        "service.queue_wait_p50_ms": median(
            [record["queue_wait"] for record in records]) * 1e3,
        "service.queue_wait_p99_ms": quantile(
            [record["queue_wait"] for record in records], 0.99) * 1e3,
        "service.service_p50_ms": median(
            [record["service"] for record in records]) * 1e3,
        "service.service_p99_ms": quantile(
            [record["service"] for record in records], 0.99) * 1e3,
        "service.plan_hit_rate": sum(record["plan_hit"] for record in records)
        / served,
        "service.result_hit_rate": sum(record["result_hit"]
                                       for record in records) / served,
        "trace.untraced_wall_s": untraced_wall / max(len(untraced.records), 1)
        * 1000.0,
        "trace.traced_wall_s": traced_wall / served * 1000.0,
    }
    metrics["trace.overhead_ratio"] = (metrics["trace.traced_wall_s"]
                                       / metrics["trace.untraced_wall_s"])
    totals = StageTotals()
    metrics.update(in_process_floors(reference, trace, spans, totals))
    metrics.update(totals.layer_metrics(spans))
    spans.write(out_dir / f"serve-zipf-seed{seed}-spans.jsonl")
    return metrics


def _payload_shape(rows) -> dict:
    """Stand-in body with the rows of a reply, to size its encoding."""
    return {"rows": [list(row) for row in rows]}


def in_process_floors(reference: Reference, trace, spans: SpanRecorder,
                      totals: StageTotals) -> dict[str, float]:
    """Hot-query floors in process, and the tail's stages one by one."""
    session = reference.session
    collect, submit = [], []
    with QueryService(session, max_in_flight=MAX_IN_FLIGHT) as service:
        for text in HOT_QUERIES:
            service.submit(text).result()
        for _ in range(20):
            for text in HOT_QUERIES:
                started = time.perf_counter()
                session.ucrpq(text).collect()
                collect.append(time.perf_counter() - started)
                started = time.perf_counter()
                service.submit(text).result()
                submit.append(time.perf_counter() - started)
    tail = [text for is_tail, text in trace if is_tail][:TRACED_TAIL]
    registry_before = kernel_counters(get_registry().snapshot())
    for index, text in enumerate(tail):
        totals.add(staged_query(session, text, spans, f"tail{index}"))
    metrics = counter_delta(registry_before,
                            kernel_counters(get_registry().snapshot()))
    metrics.update(fixpoint_profile((session, text)
                                    for text in tail).layer_metrics())
    metrics.update({
        "session.hot_collect_ms": median(collect) * 1e3,
        "service.submit_hot_ms": median(submit) * 1e3,
        "data.commit_bare_ms": CommitProbe(
            session_commit(session)).finish()["commit_p50_ms"],
    })
    return metrics
