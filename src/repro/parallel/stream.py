"""Streaming dataflow execution of campaign scan stages.

Every parallel scan — a full campaign, a single lazily accessed stage,
a fleet cell — runs here.  The scheduler has no stage barrier; records
stream between stages instead:

- **prefix-ordered chunks** — every stage's serial work list
  (:meth:`~repro.experiments.campaign.Campaign.stage_targets`) is cut
  into contiguous segments: IPv4 sweeps into walk-position ranges
  (:meth:`CyclicGroupPermutation.iter_range`), target lists into
  slices.  Completed chunks form a *prefix* of the serial visit order,
  so their responders can feed downstream stages while later segments
  are still sweeping,
- **records as dataflow** — a completed upstream chunk's surviving
  records are transformed parent-side into the consumer stage's
  target items (:meth:`~repro.experiments.campaign.Campaign.derive_items`)
  and shipped inside the consumer's chunk task; workers never resolve
  stage dependencies,
- **bounded queues with backpressure** — buffered consumer items are
  capped (``_QUEUE_LIMIT``); when handshake stages fall behind, sweep
  dispatch stalls instead of buffering unboundedly, and stalls are
  counted (``stream.backpressure_stalls``),
- **deterministic merge** — every chunk computes under a fresh metrics
  registry, positions are absolute (walk positions or serial
  target-list indices), fault epochs are keyed by stage name, and
  scanner rng state is ``seek()``-ed to the chunk's global offset;
  re-sorting merged pairs by position makes records *and* rendered
  ``metrics.json`` byte-identical to a serial run (the ``repro
  conform`` differential oracle).

A run covers the dependency closure of the requested stages: stages
already materialized on the campaign or served by the stage cache are
adopted as finished upstreams, everything else streams.  Chunk
scheduling is depth-first: QScanner chunks preempt Goscanner chunks
preempt sweep chunks, so discovered targets drain through the pipeline
instead of piling up behind fresh sweep work.  A failed chunk degrades
its stage to the surviving chunks' records and downstream stages keep
running on whatever survived; degraded stages — and stages computed
over a degraded input — are never cached.

Observability is volatile by design — ``stream.*`` counters and gauges
measure transport and scheduling, which vary with worker count, and
must never enter the deterministic ``metrics.json``.
"""

from __future__ import annotations

import queue
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.pool import RUN
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.observability.tracing import EventTracer, use_tracer
from repro.parallel.engine import _replica

__all__ = ["StreamEngine", "run_streaming"]

# How many chunks per worker a source sweep is cut into: early chunks
# must complete early for downstream overlap, and sweep chunks are
# cheap to ship (two integers).
_CHUNKS_PER_WORKER = 8

# Chunks in flight per worker: enough queued work that a slow chunk
# never leaves a worker idle.
_INFLIGHT_PER_WORKER = 4

# Floor sizes keeping chunks worth their IPC round-trip.
_MIN_SWEEP_CHUNK = 2048  # walk positions (~microseconds each)
_MIN_TARGET_CHUNK = 64  # explicit-list probes

# Consumer batching: accumulate at least _MIN_BATCH targets before
# shipping a handshake chunk (flushed regardless when upstream ends),
# and split floods (e.g. a cache-hit upstream arriving whole) into
# chunks of at most _MAX_BATCH so one consumer stage still spreads
# across workers.
_MIN_BATCH = 16
_MAX_BATCH = 256

# Max buffered consumer items before sweep dispatch stalls.
_QUEUE_LIMIT = 2048

# A run that sees no chunk complete within this window means the pool
# died or the scheduler wedged; fail loudly instead of hanging.
_COMPLETION_TIMEOUT = 300.0

# How often a waiting scheduler checks that its pool is still running.
_POLL_SECONDS = 0.5

# Dataflow edges: upstream stage -> consumer stages fed per completed
# prefix chunk.  qscan_sni_* are barrier consumers (their target union
# needs the *complete* zmap + goscanner_sni output) and are planned
# when their requirements finalize.
_CONSUMERS: Dict[str, Tuple[str, ...]] = {
    "syn_v4": ("goscanner_nosni_v4", "goscanner_sni_v4"),
    "syn_v6": ("goscanner_nosni_v6", "goscanner_sni_v6"),
    "zmap_v4": ("qscan_nosni_v4",),
    "zmap_v6": ("qscan_nosni_v6",),
}

_BARRIER_STAGES: Dict[str, Tuple[str, ...]] = {
    "qscan_sni_v4": ("zmap_v4", "goscanner_sni_v4"),
    "qscan_sni_v6": ("zmap_v6", "goscanner_sni_v6"),
}

# Pipeline depth drives dispatch priority: deeper stages drain first.
_DEPTH: Dict[str, int] = {
    "zmap_v4": 0,
    "zmap_v6": 0,
    "syn_v4": 0,
    "syn_v6": 0,
    "goscanner_nosni_v4": 1,
    "goscanner_sni_v4": 1,
    "goscanner_nosni_v6": 1,
    "goscanner_sni_v6": 1,
    "qscan_nosni_v4": 1,
    "qscan_nosni_v6": 1,
    "qscan_sni_v4": 2,
    "qscan_sni_v6": 2,
}


def _compute_chunk_on(campaign, task):
    """Compute one streaming chunk on ``campaign`` (shared task body).

    Each task records into a fresh registry/tracer that exists only for
    it (the replica's own accumulated state never leaks into the
    result), and a raising chunk is captured as the final element so
    one bad chunk degrades its stage instead of crashing the pool.
    Shared with the fleet's config-routed task wrapper
    (:func:`repro.parallel.fleet._fleet_stream_chunk`).
    """
    kind, stage, seq, lo, payload, trace_rate = task
    registry = MetricsRegistry()
    tracer = EventTracer(sample_rate=trace_rate)
    error: Optional[str] = None
    with use_metrics(registry), use_tracer(tracer):
        try:
            if kind == "range":
                pairs = campaign.compute_stage_range(stage, lo, payload)
            elif kind == "targets":
                pairs = campaign.compute_stage_targets(stage, lo, payload)
            else:
                pairs = campaign.compute_stage_chunk(stage, lo, payload)
        except Exception as exc:
            pairs = []
            error = f"chunk {seq} @{lo}: {type(exc).__name__}: {exc}"
    return stage, seq, pairs, registry.snapshot(), tracer.drain(), error


def _stream_chunk(task):
    """Pool task: compute one streaming chunk on the local replica."""
    return _compute_chunk_on(_replica(), task)


@dataclass
class _StageNode:
    """Parent-side scheduling state for one streaming stage."""

    name: str
    depth: int
    cache_state: str = "off"
    started: Optional[float] = None
    finished: Optional[float] = None
    # Chunk bookkeeping.  ``total`` stays None until the chunk count is
    # known (sources: at planning; consumers: when upstream ends).
    total: Optional[int] = None
    planned: int = 0
    completed: int = 0
    next_seq: int = 0
    results: Dict[int, Tuple] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    # Consumer-side input buffer and global item cursor.
    pending_items: List = field(default_factory=list)
    emitted: int = 0
    upstream_done: bool = False
    finalized: bool = False
    records: List = field(default_factory=list)


class StreamEngine:
    """Schedules a campaign's stages as a streaming chunk dataflow."""

    def __init__(self, campaign, stages: Optional[Iterable[str]] = None):
        from repro.experiments.campaign import _STAGE_ORDER

        self.campaign = campaign
        self.stages = tuple(stages) if stages is not None else _STAGE_ORDER
        self.workers = campaign._workers
        self._fleet = campaign._fleet
        self._pool = None
        self._nodes: Dict[str, _StageNode] = {}
        self._ready: Dict[int, deque] = {0: deque(), 1: deque(), 2: deque()}
        self._completions: queue.Queue = queue.Queue()
        self._inflight: Set[Tuple[str, int]] = set()
        self._cap = self.workers * _INFLIGHT_PER_WORKER
        # Volatile telemetry.
        self._tasks_total = 0
        self._stalls = 0
        self._queue_max = 0
        self._inflight_max = 0

    # -- public entry ------------------------------------------------------
    def run(self) -> None:
        """Stream the requested stages (and what they need) to completion."""
        campaign = self.campaign
        start = time.perf_counter()
        with use_metrics(campaign.metrics), use_tracer(campaign.tracer):
            self._plan()
            if not self._all_finalized():
                self._pool = campaign._worker_pool()
                self._loop()
            self._record_telemetry(time.perf_counter() - start)

    # -- planning ----------------------------------------------------------
    def _plan(self) -> None:
        from repro.experiments.campaign import _STAGE_INPUTS, _STAGE_ORDER, StageHealth

        campaign = self.campaign
        cache = campaign.stage_cache
        # Resolve the dependency closure consumers-first, the way a
        # serial walk would: a stage already materialized or served by
        # the cache stops the descent, so its own inputs are never
        # loaded or computed.
        needed = set(self.stages)
        hits: Dict[str, List] = {}
        for name in reversed(_STAGE_ORDER):
            if name not in needed or name in campaign.__dict__:
                continue
            cached = cache.load(name) if cache is not None else None
            if cached is not None:
                hits[name] = cached
            else:
                needed.update(_STAGE_INPUTS[name])
        for name in _STAGE_ORDER:
            if name in needed:
                self._nodes[name] = _StageNode(
                    name=name,
                    depth=_DEPTH[name],
                    cache_state="off" if cache is None else "miss",
                )
        # Adopt settled stages in one pass, in stage order, *before*
        # feeding anything: a consumer that is itself settled must never
        # receive chunks.  Two settled kinds: stages already materialized
        # on the campaign (an earlier run computed them — their
        # stage_records counters were recorded then, so re-accounting
        # here would double them) and cache hits (accounted via
        # ``_complete``).
        preset: List[_StageNode] = []
        for node in self._nodes.values():
            if node.name in campaign.__dict__:
                node.finalized = True
                node.started = node.finished = time.perf_counter()
                node.total = 0
                node.records = campaign.__dict__[node.name]
                preset.append(node)
            elif node.name in hits:
                node.cache_state = "hit"
                node.started = time.perf_counter()
                node.total = 0
                self._complete(node, hits[node.name], StageHealth(stage=node.name))
                preset.append(node)
        for node in preset:
            self._feed_records(node.name, node.records)
            self._upstream_finished(node)
        for name in ("zmap_v4", "syn_v4"):
            self._plan_source(name, "range", _MIN_SWEEP_CHUNK)
        for name in ("zmap_v6", "syn_v6"):
            self._plan_source(name, "targets", _MIN_TARGET_CHUNK)

    def _plan_source(self, name: str, kind: str, min_chunk: int) -> None:
        from repro.experiments.campaign import shard_block_bounds

        node = self._nodes.get(name)
        if node is None or node.finalized:
            return
        node.started = time.perf_counter()
        targets = self.campaign.stage_targets(name)
        chunks = self._source_chunk_count(len(targets), min_chunk)
        for seq in range(chunks):
            lo, hi = shard_block_bounds(len(targets), seq, chunks)
            # Range chunks ship their end position; target chunks ship
            # their slice of the list.
            payload = hi if kind == "range" else targets[lo:hi]
            self._ready[0].append((kind, name, seq, lo, payload))
        node.total = node.planned = chunks
        if chunks == 0:
            self._finalize(node)

    def _plan_sni(self, name: str) -> None:
        """Plan a barrier consumer once its requirements finalized."""
        node = self._nodes[name]
        node.started = time.perf_counter()
        node.pending_items = list(self.campaign.stage_targets(name))
        node.upstream_done = True
        self._flush(node, force=True)
        node.total = node.planned
        if node.total == 0:
            self._finalize(node)

    def _maybe_plan_barriers(self) -> None:
        for name, requirements in _BARRIER_STAGES.items():
            node = self._nodes.get(name)
            if node is None or node.finalized or node.started is not None:
                continue
            if all(self._nodes[req].finalized for req in requirements):
                self._plan_sni(name)

    def _source_chunk_count(self, items: int, min_chunk: int) -> int:
        if items <= 0:
            return 0
        cap = self.workers * _CHUNKS_PER_WORKER
        return max(1, min(cap, max(1, items // min_chunk)))

    # -- dataflow ----------------------------------------------------------
    def _open_consumers(self, name: str) -> List[_StageNode]:
        """Consumers of ``name`` in this run that still take input."""
        nodes = (self._nodes.get(consumer) for consumer in _CONSUMERS.get(name, ()))
        return [
            node
            for node in nodes
            if node is not None and not node.finalized and node.cache_state != "hit"
        ]

    def _feed_records(self, name: str, records: List) -> None:
        for cnode in self._open_consumers(name):
            items = self.campaign.derive_items(cnode.name, records)
            if items:
                cnode.pending_items.extend(items)
                self._flush(cnode, force=cnode.upstream_done)

    def _flush(self, node: _StageNode, force: bool = False) -> None:
        items = node.pending_items
        if not items or (not force and len(items) < _MIN_BATCH):
            return
        node.pending_items = []
        for lo, hi in self._split(node, items):
            seq = node.planned
            node.planned += 1
            self._ready[node.depth].append(
                ("chunk", node.name, seq, node.emitted + lo, items[lo:hi])
            )
        node.emitted += len(items)

    def _split(self, node: _StageNode, items: List) -> List[Tuple[int, int]]:
        """Cut one flush batch into at-most-``_MAX_BATCH``-item chunks.

        SNI stages align cuts on address runs — all connections to one
        server must stay in one chunk so the server's per-connection
        state sequence replays the serial scan.
        """
        count = (len(items) + _MAX_BATCH - 1) // _MAX_BATCH
        if count <= 1:
            return [(0, len(items))]
        from repro.experiments.campaign import aligned_block_bounds, shard_block_bounds

        if node.name.startswith(("goscanner_sni", "qscan_sni")):
            bounds = [
                aligned_block_bounds([item[0] for item in items], k, count)
                for k in range(count)
            ]
        else:
            bounds = [shard_block_bounds(len(items), k, count) for k in range(count)]
        return [(lo, hi) for lo, hi in bounds if hi > lo]

    def _upstream_finished(self, node: _StageNode) -> None:
        for cnode in self._open_consumers(node.name):
            cnode.upstream_done = True
            if cnode.started is None:
                cnode.started = time.perf_counter()
            self._flush(cnode, force=True)
            cnode.total = cnode.planned
            if cnode.completed == cnode.total:
                self._finalize(cnode)
        self._maybe_plan_barriers()

    # -- chunk lifecycle ---------------------------------------------------
    def _submit(self, task) -> None:
        kind, stage, seq, lo, payload = task
        node = self._nodes[stage]
        if node.started is None:
            node.started = time.perf_counter()
        self._inflight.add((stage, seq))
        self._inflight_max = max(self._inflight_max, len(self._inflight))
        self._tasks_total += 1
        full = (kind, stage, seq, lo, payload, self.campaign.tracer.sample_rate)

        def on_done(result):
            self._completions.put(("ok", result))

        def on_error(exc, stage=stage, seq=seq):
            self._completions.put(("err", (stage, seq, exc)))

        if self._fleet is not None:
            func, args = self._fleet.stream_task(self.campaign.config, full)
        else:
            func, args = _stream_chunk, (full,)
        try:
            self._pool.apply_async(
                func, args, callback=on_done, error_callback=on_error
            )
        except ValueError as exc:  # the pool was closed under this run
            on_error(exc)

    def _consumer_backlog(self) -> int:
        """Buffered consumer items not yet inside a worker."""
        total = 0
        for node in self._nodes.values():
            if node.depth > 0 and not node.finalized:
                total += len(node.pending_items)
        for depth in (1, 2):
            for task in self._ready[depth]:
                total += len(task[4])
        return total

    def _dispatch(self) -> None:
        stalled = False
        while len(self._inflight) < self._cap:
            backlog = self._consumer_backlog()
            self._queue_max = max(
                self._queue_max, backlog, sum(len(d) for d in self._ready.values())
            )
            task = None
            for depth in (2, 1):
                if self._ready[depth]:
                    task = self._ready[depth].popleft()
                    break
            if task is None and self._ready[0]:
                if backlog >= _QUEUE_LIMIT:
                    # Sweeps are outrunning the handshake stages: stall
                    # source dispatch and push the buffered targets into
                    # consumer chunks instead, so the stall drains the
                    # pipeline rather than wedging it.
                    stalled = True
                    flushed = False
                    for node in self._nodes.values():
                        if node.depth > 0 and not node.finalized and node.pending_items:
                            self._flush(node, force=True)
                            flushed = True
                    if flushed:
                        continue
                    if not self._inflight:
                        # Liveness: with nothing running and nothing to
                        # flush, a stalled source is the only progress.
                        task = self._ready[0].popleft()
                else:
                    task = self._ready[0].popleft()
            if task is None:
                break
            self._submit(task)
        if stalled:
            self._stalls += 1

    def _loop(self) -> None:
        while not self._all_finalized():
            self._dispatch()
            if not self._inflight:
                pending = [n.name for n in self._nodes.values() if not n.finalized]
                raise RuntimeError(f"streaming scheduler wedged; pending: {pending}")
            kind, payload = self._next_completion()
            self._handle(kind, payload)
            while True:
                try:
                    kind, payload = self._completions.get_nowait()
                except queue.Empty:
                    break
                self._handle(kind, payload)

    def _next_completion(self):
        """Wait for a chunk result, failing in-flight chunks of a closed pool.

        A ``close()``/``terminate()`` racing this run (watchdog, signal
        handler, interpreter teardown) can leave chunks whose results
        never arrive.  They are reported failed, never dropped: the
        stage degrades instead of finishing as a quietly short
        ``success``.
        """
        deadline = time.monotonic() + _COMPLETION_TIMEOUT
        while True:
            try:
                return self._completions.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                pass
            if getattr(self._pool, "_state", RUN) != RUN:
                aborted = RuntimeError("aborted: pool closed with chunks in flight")
                for stage, seq in sorted(self._inflight):
                    self._completions.put(("err", (stage, seq, aborted)))
                continue
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"no chunk completed within {_COMPLETION_TIMEOUT}s; "
                    "worker pool presumed dead"
                )

    def _handle(self, kind: str, payload) -> None:
        if kind == "err":
            stage, seq, exc = payload
            error = f"chunk {seq}: {type(exc).__name__}: {exc}"
            result = (stage, seq, [], {}, [], error)
        else:
            result = payload
        stage, seq, pairs, snapshot, events, error = result
        if (stage, seq) not in self._inflight:
            return  # a late result for a chunk already reported aborted
        self._inflight.discard((stage, seq))
        node = self._nodes[stage]
        node.results[seq] = (pairs, snapshot, events, error)
        node.completed += 1
        self._advance(node)

    def _advance(self, node: _StageNode) -> None:
        # Feed consumers strictly in prefix order: chunk seq N's records
        # only flow once 0..N-1 have flowed (failed chunks flow nothing,
        # so consumers see exactly the surviving records).
        while node.next_seq in node.results:
            pairs, _, _, error = node.results[node.next_seq]
            node.next_seq += 1
            if error is None and pairs:
                self._feed_records(node.name, [record for _, record in pairs])
        if (
            node.total is not None
            and node.completed == node.total
            and not node.finalized
        ):
            self._finalize(node)

    def _finalize(self, node: _StageNode) -> None:
        from repro.experiments.campaign import StageHealth

        campaign = self.campaign
        merged: List[Tuple[int, object]] = []
        for seq in range(node.total or 0):
            pairs, snapshot, events, error = node.results[seq]
            if error is not None:
                node.errors.append(error)
                continue
            merged.extend(pairs)
            if snapshot:
                campaign.metrics.merge_snapshot(snapshot)
            if events:
                campaign.tracer.extend(events)
        node.results.clear()
        merged.sort(key=lambda item: item[0])
        records = [record for _, record in merged]
        if not node.errors:
            status = "success"
        elif len(node.errors) >= max(node.total or 0, 1):
            status = "failed"
        else:
            status = "degraded"
        health = StageHealth(
            stage=node.name,
            status=status,
            error="; ".join(node.errors) or None,
            shards=max(node.total or 0, 1),
            shards_failed=len(node.errors),
        )
        self._complete(node, records, health)
        self._upstream_finished(node)

    def _complete(self, node: _StageNode, records: List, health) -> None:
        """Install a finished stage on the campaign (shared with hits)."""
        campaign = self.campaign
        node.finalized = True
        node.finished = time.perf_counter()
        if node.started is None:
            node.started = node.finished
        node.records = records
        campaign.__dict__[node.name] = records
        if (
            campaign.stage_cache is not None
            and node.cache_state == "miss"
            and health.status == "success"
            and not campaign._tainted(node.name)
        ):
            campaign.stage_cache.store(node.name, records)
        health.records = len(records)
        campaign.stage_health[node.name] = health
        campaign._account_stage(
            node.name, len(records), node.cache_state, node.started, health
        )

    def _all_finalized(self) -> bool:
        return all(node.finalized for node in self._nodes.values())

    # -- telemetry ---------------------------------------------------------
    def _record_telemetry(self, wall: float) -> None:
        metrics = self.campaign.metrics
        streamed = [
            node
            for node in self._nodes.values()
            if node.cache_state != "hit" and (node.total or 0) > 0
        ]
        busy = sum(
            (node.finished or 0.0) - (node.started or 0.0) for node in streamed
        )
        overlap = busy / wall if wall > 0 and streamed else 0.0
        metrics.counter("stream.stages", volatile=True).inc(len(streamed))
        metrics.counter("stream.tasks", volatile=True).inc(self._tasks_total)
        metrics.counter("stream.backpressure_stalls", volatile=True).inc(self._stalls)
        metrics.gauge("stream.queue_depth_max", volatile=True).set(self._queue_max)
        metrics.gauge("stream.inflight_max", volatile=True).set(self._inflight_max)
        metrics.gauge("stream.queue_limit", volatile=True).set(_QUEUE_LIMIT)
        metrics.gauge("stream.wall_seconds", volatile=True).set(round(wall, 6))
        metrics.gauge("stream.overlap_ratio", volatile=True).set(round(overlap, 4))


def run_streaming(campaign, stages: Optional[Iterable[str]] = None) -> None:
    """Stream ``stages`` (default: all twelve) and their dependency closure."""
    StreamEngine(campaign, stages).run()
