"""Sharded streaming classification pipeline — the serving harness.

A :class:`ClassificationPipeline` streams a :class:`~repro.core.packet.
PacketTrace` through a classifier in fixed-size chunks, optionally fanned
out over N worker shards, and aggregates per-chunk statistics into one
:class:`PipelineResult`:

* matches are concatenated in trace order, so the pipeline output is
  bit-for-bit identical to a single-shot ``classify_trace`` at every
  shard count (the conformance suite asserts this);
* backends that model hardware cost (the accelerator) contribute
  per-packet occupancy, which the result converts into device throughput
  and energy per packet via the :mod:`repro.energy` models;
* wall-clock throughput of the *simulation itself* is reported so the
  benchmark suite can track the serving path.

**Shard modes.**  ``shard_mode`` selects the worker tier:

* ``"processes"`` (the default for direct construction) — the fork
  tier whenever ``shards > 1`` and the platform offers ``fork``.
* ``"auto"`` (the :class:`~repro.serve.EngineConfig` default) — a
  one-shot ``run()`` of a non-persistent pipeline never forks.  A cost
  rule picks its tier: the thread tier when at least two usable
  workers (``min(shards, usable CPUs)``) would each get
  :data:`AUTO_THREADS_MIN_PACKETS_PER_WORKER` packets, inline
  otherwise.  A persistent pipeline, and a streamed session, serve on
  the fork tier when at least two usable workers exist.  Usable CPUs
  are the process's affinity set (:func:`usable_cpus`), so a pinned
  process is sized for the CPUs it may actually run on.
* ``"threads"`` — a thread pool running the NumPy kernels (which release
  the GIL in their hot loops) in-process: no fork, no IPC, per-shard
  flow-cache clones that stay warm across runs.

One worker-count rule holds for both carriers: explicit ``"processes"``
and ``"threads"`` run exactly ``shards`` workers (clamped to the chunk
count), so their counters are the same on every host; only ``"auto"``
clamps to the usable CPUs.  One static chunk schedule holds too
(:func:`epoch_spans`, :func:`shard_groups`): the chunk grid is split at
every update barrier, and shard ``s`` of ``W`` serves chunks
``s, s + W, ...`` of each span, in order.  A chunk's shard label is
``s`` on every tier, and each shard's private flow cache sees the same
chunk sequence whichever carrier runs it.

**The fork tier** is ``W`` fork-context worker processes, each owning
one duplex pipe; the classifier and the parent's update watermark are
``Process`` arguments, so fork hands them over copy-on-write and
nothing large is pickled.  The trace travels through a **shared-memory
arena**: input/match/occupancy segments are created with growth slack,
the trace is written once into the input segment, and each worker gets
one small descriptor for its whole chunk group, scatters its
match/occupancy slices straight into the shared output buffers, and
replies once with per-chunk scalars.  The pool has two lifetimes:

* *persistent* (``persistent=True``) — forked on first use and reused
  across ``run()`` calls until :meth:`ClassificationPipeline.close`,
  amortising fork + warm-up cost over a serving session; workers keep
  their arena attachments and flow caches warm between runs;
* otherwise — the pool (and its arena) lives for one ``run()``, or for
  one streamed session (:meth:`ClassificationPipeline.hold_pool`).

**Dispatch auto-tuning.**  ``min_chunk_packets`` coalesces chunks until
each dispatch carries at least that many packets (the engine default
targets >= 64k packets/dispatch), amortising per-chunk Python and IPC
cost; it applies only to runs *without* updates, because the chunk grid
is the epoch grid.  Independently, a final chunk smaller than a quarter
of the chunk size is merged into its predecessor — a tiny tail pays
full dispatch cost otherwise.

**Fault tolerance.**  Construct with a
:class:`~repro.engine.supervision.SupervisionPolicy` (the engine builds
one from ``EngineConfig.fault_policy``/``max_retries``/
``chunk_timeout_s``) and every dispatch is supervised: per-chunk
deadlines, worker exit-code watch, bounded retry with seeded backoff,
and — under ``fault_policy="degrade"`` — the worker-tier ladder
``processes -> threads -> inline``.  A fork-tier retry
tears the pool down and re-forks from the parent, whose classifier is
only caught up *after* a successful dispatch, so every replayed chunk
re-applies its exact update prefix and the run stays bit-identical to
a fault-free one.  The arena carries a generation fence + checksum
control word each group descriptor repeats, so a replayed
attach can never silently read a torn or stale segment.  Injected
faults (:mod:`repro.engine.faults`) ride the same machinery via
``run(trace, faults=plan)``; everything observed lands in
``PipelineResult.fault``.

**Live rule updates.**  ``run(trace, updates=[...])`` interleaves a
:class:`~repro.core.updates.ScheduledUpdate` stream with classification:
each batch takes effect at the first chunk boundary at or after its
``at_packet`` offset, so every packet is classified against exactly one
ruleset version (its chunk's epoch — recorded on
:class:`ChunkStats.epoch`).  On the fork tier every worker applies
the same batches in the same deterministic order before touching a
chunk from a later epoch (each group descriptor carries the update log,
every batch tagged with the chunk it takes effect at; a worker-local
watermark makes re-application a no-op), and the parent catches its
own copy up after the run; the thread tier
applies each batch exactly once at its chunk boundary (a barrier drains
in-flight chunks first).  All modes produce identical matches — the
differential update-conformance suite replays them against a per-epoch
linear-search oracle.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ArenaCorruptionError, ConfigError, WorkerCrashError
from ..core.packet import PacketTrace
from ..core.updates import RuleUpdate, ScheduledUpdate
from .faults import FaultPlan, fire_update_specs, fire_worker_specs
from .protocol import BatchStats, Classifier, batch_stats_of, warm_batch_state
from .supervision import (
    DEGRADATION_LADDER,
    RECOVERABLE,
    FaultReport,
    SupervisionPolicy,
    ForkWorker,
    Supervisor,
    collect_replies,
    teardown_pool,
)

#: Default packets per chunk: large enough to amortise NumPy dispatch,
#: small enough that per-chunk stats stay meaningful for live reporting.
DEFAULT_CHUNK_SIZE = 4096

#: The worker tiers ``shard_mode`` accepts.
SHARD_MODES = ("auto", "processes", "threads")

#: The engine-level dispatch target: coalesce chunks until each dispatch
#: carries at least this many packets (runs without updates only).
DEFAULT_MIN_CHUNK_PACKETS = 65536

#: A final chunk smaller than ``chunk_size / TAIL_MERGE_DIVISOR`` is
#: merged into its predecessor instead of paying full dispatch cost.
TAIL_MERGE_DIVISOR = 4

#: ``shard_mode="auto"`` serves a one-shot run of a non-persistent
#: pipeline on the thread tier only when at least two usable workers
#: would each get this many packets; below it the run is served inline.
#: It is the crossover measured on a 2-CPU host (table in
#: docs/engine.md): threads overtake inline from ~10-12k packets per
#: worker uncached and from ~16k behind a flow cache, where the
#: per-chunk work is smaller and the thread pool's start-up weighs more.
AUTO_THREADS_MIN_PACKETS_PER_WORKER = 16384

#: Long-lived-pool update-log watermark: once this many batches have
#: accumulated for one pool's lifetime, the pool is re-forked (from the
#: caught-up parent) instead of shipping an ever-growing log with every
#: group descriptor.
POOL_LOG_MAX_BATCHES = 64

#: One batch of the pool-lifetime update log: (sequence number, ops).
PendingUpdate = tuple[int, tuple[RuleUpdate, ...]]

#: One processed chunk: (match, occupancy | None,
#: (hits, misses, evictions) | None, shard label).  The cache triple is
#: present only when the classifier is a flow-cached front-end (see
#: :mod:`repro.engine.flowcache`).  The shard label is the 0-based
#: index of the chunk group that served the chunk (0 on the inline
#: tier).
ChunkOutput = tuple[
    np.ndarray, np.ndarray | None, tuple[int, int, int] | None, int
]


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity set where
    the platform reports one (``taskset``, cgroup cpusets), else
    ``os.cpu_count()``.  Pools and tiers are sized from this, never from
    the machine's CPU count, which ignores affinity."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class _ScheduledEntry:
    """A normalised update batch: global sequence number plus the index
    of the first chunk that must observe it."""

    seq: int
    effect_chunk: int
    batch: tuple[RuleUpdate, ...]


def epoch_spans(n_chunks: int, entries) -> list[range]:
    """Split the chunk grid at every update barrier: the chunks of one
    span all serve one ruleset epoch (an update effective at chunk 0
    applies before the first span, so it cuts nothing)."""
    cuts = sorted({
        e.effect_chunk for e in entries if 0 < e.effect_chunk < n_chunks
    })
    edges = [0, *cuts, n_chunks]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def shard_groups(span: range, workers: int) -> list[list[int]]:
    """The static chunk -> shard schedule both carriers follow: shard
    ``s`` serves chunks ``span[s::workers]``, in order."""
    return [list(span[s::workers]) for s in range(workers)]


def _fork_worker(conn, classifier, applied: int, shard: int, inherited):
    """Body of fork-tier worker ``shard``: serve one chunk group per
    request until the parent closes the pipe.

    ``classifier`` and ``applied`` (the parent's update watermark at
    fork time) arrive as ``Process`` arguments, inherited across the
    fork.  ``inherited`` holds the parent ends of the pipes that exist
    at fork time; closing them here lets EOF reach this worker when the
    parent goes away.  Each request is a small descriptor (see
    ``ClassificationPipeline._run_processes``); the reply is one
    ``(ok, payload)`` pair: per-chunk ``(has_occupancy, cache triple)``
    on success, the raised exception otherwise.

    Arena attachments are cached by segment names, so a worker attaches
    again only when the parent grew the arena.  Attaching re-registers
    the name with the resource tracker, but the workers are forked
    *after* the parent started the tracker (``_ensure_pool``), so they
    share one tracker process and the duplicate registration is a set
    no-op — the parent's unlink stays the single owner of the segment
    lifecycle.
    """
    from multiprocessing import shared_memory

    for c in inherited:
        c.close()
    names, segs = None, ()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            if task[0] != names:
                for shm in segs:
                    try:
                        shm.close()
                    except BufferError:  # pragma: no cover - stale views
                        pass
                names = task[0]
                segs = tuple(
                    shared_memory.SharedMemory(name=n) for n in names
                )
            out, applied = _serve_group(classifier, segs, shard, task, applied)
            reply = (True, out)
        except Exception as exc:  # noqa: BLE001 - relayed to the parent
            reply = (False, exc)
        conn.send(reply)


def _serve_group(classifier, segs, shard: int, task, applied: int):
    """Serve one chunk group out of the arena ``segs``; returns the
    per-chunk replies and the advanced update watermark.

    Before reading the trace the worker verifies the arena's control
    segment — a (generation, checksum) pair the parent wrote *after*
    the trace — against the values repeated in the descriptor.  A
    mismatch means the attach would read a torn or stale arena, and
    raises :class:`~repro.core.errors.ArenaCorruptionError` instead of
    silently serving garbage.  Each chunk then fires its injected fault
    specs, applies every logged batch in effect at the chunk that this
    process has not applied yet (batches are ordered by sequence number
    and effect chunk, and a shard serves its chunks in order, so each
    applies exactly once), and scatters its results.
    """
    _, shape, dtype, ctl_expected, log, chunks = task
    ctl = np.ndarray((2,), np.uint64, buffer=segs[3].buf)
    seen = (int(ctl[0]), int(ctl[1]))
    if seen != tuple(ctl_expected):
        raise ArenaCorruptionError(
            f"arena fence mismatch serving chunk {chunks[0][0]}: "
            f"generation/checksum {seen[0]}/{seen[1]:#x} != expected "
            f"{ctl_expected[0]}/{ctl_expected[1]:#x}",
            chunk=chunks[0][0],
            shard=shard,
            cause="arena",
        )
    n = shape[0]
    headers = np.ndarray(shape, dtype=dtype, buffer=segs[0].buf)
    match_out = np.ndarray((n,), np.int64, buffer=segs[1].buf)
    occ_out = np.ndarray((n,), np.int64, buffer=segs[2].buf)
    out = []
    for index, (start, end), specs in chunks:
        if specs:
            fire_worker_specs(specs, in_process=False, chunk=index, shard=shard)
        for seq, effect, batch in log:
            if seq > applied and effect <= index:
                classifier.apply_updates(batch)
                applied = seq
        match, occ, cache = _run_chunk_local(classifier, headers, (start, end))
        match_out[start:end] = match
        if occ is not None:
            occ_out[start:end] = occ
        out.append((occ is not None, cache))
    return out, applied


def aggregate_shard_cache_stats(chunks) -> list[dict]:
    """Fold per-chunk flow-cache counters into per-shard accounting:
    one dict per shard with the chunks it served, its hit/miss/eviction
    totals and its hit rate.  Shared by :class:`PipelineResult` and
    :class:`~repro.serve.EngineReport`."""
    acc: dict[int, dict] = {}
    for c in chunks:
        if c.cache_hits is None:
            continue
        d = acc.setdefault(c.shard, {
            "shard": c.shard, "chunks": 0, "hits": 0,
            "misses": 0, "evictions": 0,
        })
        d["chunks"] += 1
        d["hits"] += c.cache_hits
        d["misses"] += c.cache_misses
        d["evictions"] += c.cache_evictions or 0
    out = [acc[k] for k in sorted(acc)]
    for d in out:
        lookups = d["hits"] + d["misses"]
        d["hit_rate"] = d["hits"] / lookups if lookups else 0.0
    return out


@dataclass(frozen=True)
class ChunkStats:
    """Aggregate statistics for one processed chunk.

    ``cache_hits``/``cache_misses``/``cache_evictions`` are filled when
    the classifier is a flow-cached front-end; ``None`` on bare
    backends.  ``epoch`` is the ruleset version every packet of this
    chunk was classified against (``None`` when the backend is not
    updatable); ``updates_applied`` counts the update *operations* that
    took effect immediately before this chunk.  ``shard`` is the
    0-based index of the chunk group that served the chunk (see
    :func:`shard_groups`; 0 on the inline tier) — the same label on the
    fork and thread tiers.
    """

    index: int
    start: int
    n_packets: int
    matched: int
    occupancy_sum: int | None = None
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_evictions: int | None = None
    epoch: int | None = None
    updates_applied: int = 0
    shard: int = 0

    @property
    def matched_fraction(self) -> float:
        return self.matched / self.n_packets if self.n_packets else 0.0


@dataclass
class PipelineResult:
    """Trace-order matches plus aggregated serving statistics.

    ``n_shards`` is the number of workers that *actually ran*: 1
    whenever the single-process fallback served the trace (no ``fork``
    on the platform, a single chunk, ``shards=1``, or the ``"auto"``
    cost rule choosing inline), else the worker count after clamping to
    the chunk count (and, under ``"auto"``, the usable CPUs).
    """

    match: np.ndarray
    chunks: list[ChunkStats]
    n_shards: int
    chunk_size: int
    elapsed_s: float
    backend: str = "classifier"
    occupancy: np.ndarray | None = field(default=None, repr=False)
    #: Flow-cache totals over all chunks (``None`` on bare backends).
    #: Counts come back from whichever worker served each chunk, so
    #: they are correct on the fork tier too.
    cache_hits: int | None = None
    cache_misses: int | None = None
    cache_evictions: int | None = None
    #: Live-update totals for the run: batches and operations applied,
    #: operations skipped (removals of already-dead ids), and the
    #: classifier's epoch after the run (``None`` when no update stream
    #: was served / the backend is not updatable).
    update_batches: int = 0
    update_ops: int = 0
    update_skipped: int = 0
    final_epoch: int | None = None
    #: Parent-side wall-clock seconds each update batch took to apply,
    #: in schedule order (the control-plane apply cost: tree surgery +
    #: kernel patch + cache epoch bump).  Empty when no updates ran.
    update_latencies_s: tuple[float, ...] = ()
    #: Supervisor observations for the run (retries, replays,
    #: degradations, crash counts, recovery latencies).  ``None`` on an
    #: unsupervised run; zero-counted on a supervised fault-free one.
    fault: FaultReport | None = field(default=None, repr=False)

    @property
    def n_packets(self) -> int:
        return len(self.match)

    @property
    def matched(self) -> int:
        return int((self.match >= 0).sum())

    @property
    def matched_fraction(self) -> float:
        return self.matched / self.n_packets if self.n_packets else 0.0

    def throughput_pps(self) -> float:
        """Simulation wall-clock packets/second through the pipeline."""
        return self.n_packets / self.elapsed_s if self.elapsed_s > 0 else 0.0

    # -- flow-cache aggregation (cached front-ends) ---------------------
    @property
    def cache_lookups(self) -> int | None:
        """Total lookups through the flow cache (hits + backend misses)."""
        if self.cache_hits is None or self.cache_misses is None:
            return None
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float | None:
        """Fraction of packets served without a backend lookup."""
        lookups = self.cache_lookups
        if lookups is None:
            return None
        return self.cache_hits / lookups if lookups else 0.0

    def shard_cache_stats(self) -> list[dict] | None:
        """Per-shard flow-cache accounting, from the per-chunk counters.

        Each entry reports one shard's chunks served, hits, misses,
        evictions and hit rate — the per-shard view the aggregate
        ``cache_hit_rate`` flattens (shard caches are private, so their
        hit rates genuinely differ under skew).  ``None`` on bare
        backends.
        """
        if self.cache_hits is None:
            return None
        return aggregate_shard_cache_stats(self.chunks)

    # -- hardware cost aggregation (accelerator-backed pipelines) -------
    def mean_occupancy(self) -> float | None:
        """Mean memory-port cycles per packet, when the backend models it."""
        if self.occupancy is None or not self.occupancy.size:
            return None
        return float(self.occupancy.mean())

    def device_throughput_pps(self, freq_hz: float) -> float | None:
        """Steady-state modelled-device packets/second at ``freq_hz``."""
        mo = self.mean_occupancy()
        return freq_hz / mo if mo else None

    def energy_per_packet_j(self, model) -> float | None:
        """Joules/packet on an :class:`~repro.energy.AcceleratorPowerModel`."""
        mo = self.mean_occupancy()
        return model.energy_per_packet_j(mo) if mo else None


class ClassificationPipeline:
    """Stream traces through a classifier in chunks across N shards.

    ``shard_mode`` picks the worker tier (see the module docstring):
    ``"processes"`` serves on the fork tier whenever ``shards > 1``
    (the right mode for conformance tests that must exercise the fork
    transport), ``"auto"`` serves one-shot runs on threads or inline by
    a packets-per-worker cost rule and forks only a persistent or
    stream-lifetime pool, ``"threads"`` runs shard-affine workers in a
    thread pool with per-shard flow-cache clones.

    The pipeline owns the fork pool's lifetime: with ``persistent=True``
    the pool survives across ``run()`` calls (create once, serve many
    traces) until :meth:`close` — or the end of a ``with`` block —
    tears the pool and its shared-memory arena down; otherwise it lives
    for one ``run()``, or between :meth:`hold_pool` and
    :meth:`release_pool` (one streamed session).

    Rule updates belong *inside* ``run(trace, updates=...)``: the update
    stream is applied with deterministic epoch semantics on every tier,
    including long-lived pools (each group descriptor ships the update
    log, and the workers catch up exactly once per batch).  The one
    remaining caveat is **out-of-band** mutation: a long-lived pool's
    workers hold the copy-on-write snapshot of the classifier taken
    when the pool forked, so mutating the classifier directly (e.g.
    ``IncrementalClassifier.insert`` between runs) does not reach them —
    call :meth:`close` after such a mutation and the next ``run()``
    forks a fresh pool.  (A run-scoped pool forks per run and needs no
    such step; the thread tier shares the live classifier and tracks
    its ``update_epoch``.)
    """

    def __init__(
        self,
        classifier: Classifier,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        shards: int = 1,
        persistent: bool = False,
        shard_mode: str = "processes",
        min_chunk_packets: int = 0,
        policy: SupervisionPolicy | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shard_mode not in SHARD_MODES:
            raise ConfigError(
                f"unknown shard_mode {shard_mode!r}; "
                f"expected one of {', '.join(SHARD_MODES)}"
            )
        if min_chunk_packets < 0:
            raise ConfigError(
                f"min_chunk_packets must be >= 0, got {min_chunk_packets}"
            )
        self.classifier = classifier
        self.chunk_size = chunk_size
        self.shards = shards
        self.persistent = persistent
        self.shard_mode = shard_mode
        self.min_chunk_packets = min_chunk_packets
        #: Fault-handling policy; ``None`` keeps the historical
        #: unsupervised dispatch (a fault propagates raw).  Passing a
        #: :class:`~repro.engine.supervision.SupervisionPolicy` — or a
        #: ``faults=`` plan to :meth:`run` — routes every dispatch
        #: through the supervisor.
        self.policy = policy
        self._supervisor = Supervisor(policy) if policy is not None else None
        #: The fork tier's workers (:class:`ForkWorker` per shard), or
        #: ``None`` while no pool is alive.
        self._pool: list[ForkWorker] | None = None
        #: Whether a streamed session holds the pool across runs
        #: (:meth:`hold_pool`).
        self._held = False
        #: The fork pool's shared-memory arena:
        #: ``{"names": (in, out, occ, ctl), "segs": [...]}``, grown
        #: (re-created larger) only when a trace outsizes it, released
        #: with the pool.  The ctl segment holds the (generation,
        #: checksum) fence pair.
        self._arena: dict | None = None
        #: Monotonic arena-content generation: bumped every time the
        #: parent (re)writes the input segment, never reset, so a stale
        #: attach can never present a valid fence.
        self._arena_generation = 0
        #: Thread-tier per-shard flow-cache clones, persisted across
        #: runs so shard caches stay warm, plus the backend epoch they
        #: were last synchronised against.
        self._thread_clones: list = []
        self._thread_epoch = 0
        #: Monotonic allocator for update-batch sequence numbers and the
        #: parent process's applied-batch watermark.
        self._update_seq = 0
        self._applied_seq = 0
        #: Batches applied while the current pool has been alive.
        #: Shipped (cheaply — workers skip applied seqs) with every
        #: later group so a worker that never saw an earlier run's
        #: chunks still applies its updates before any newer ones.
        self._pool_log: list[PendingUpdate] = []

    # -- fork-pool lifecycle --------------------------------------------
    def close(self) -> None:
        """Tear down the fork pool and its shared-memory arena (no-op
        when none is alive).

        Teardown is bounded: after ``terminate()`` every worker is
        joined against a shared deadline and SIGKILLed if it overstays
        (a hung or crash-looping worker cannot wedge ``close()``), and
        the arena segments are unlinked unconditionally afterwards so
        an abnormal exit leaks no shared memory.
        """
        if self._pool is not None:
            teardown_pool(self._pool, deadline_s=5.0)
            self._pool = None
        self._release_arena()
        self._pool_log.clear()

    def __enter__(self) -> "ClassificationPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except (OSError, ValueError, TypeError, AttributeError):
            # Interpreter teardown may have dismantled multiprocessing /
            # shared_memory internals under us; nothing left to reap.
            pass

    def hold_pool(self, ndim: int) -> bool:
        """Fork the pool now and keep it across ``run()`` calls until
        :meth:`release_pool` — one streamed session's lifetime.  The
        engine calls this before it starts its serving threads (forking
        a multi-threaded process risks inheriting held locks).  Returns
        whether a pool is held: ``False`` when this pipeline would not
        fork (see :meth:`fork_planned`)."""
        if not self.fork_planned():
            return False
        self._held = True
        try:
            self._ensure_pool(ndim)
        except BaseException:
            self.release_pool()
            raise
        return True

    def release_pool(self) -> None:
        """End a :meth:`hold_pool` session: a persistent pool stays
        alive, any other pool is torn down."""
        self._held = False
        if not self.persistent:
            self.close()

    def _ensure_pool(self, ndim: int, n_chunks: int | None = None):
        """Fork the pool on first use; reuse it afterwards.  A pool
        scoped to one run forks only the workers that run engages."""
        if self._pool is None:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            try:
                # Start the resource tracker *before* forking: the
                # workers then share the parent's tracker process, which
                # keeps shared-memory bookkeeping single-owner (see
                # ``_fork_worker``).
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except (OSError, RuntimeError):  # pragma: no cover - tracker spawn
                pass
            # Build every lazy batch structure before forking so workers
            # inherit them copy-on-write.
            warm_batch_state(self.classifier, ndim)
            workers = self._worker_count()
            if n_chunks is not None and not (self.persistent or self._held):
                workers = min(workers, n_chunks)
            pool: list[ForkWorker] = []
            try:
                for shard in range(workers):
                    conn, child = ctx.Pipe()
                    # Children start at the parent's applied-update
                    # watermark: every batch the forked snapshot
                    # already contains is skipped in the shipped log.
                    proc = ctx.Process(
                        target=_fork_worker,
                        args=(
                            child, self.classifier, self._applied_seq,
                            shard, [w.conn for w in pool] + [conn],
                        ),
                        name=f"repro-shard-{shard}",
                        daemon=True,
                    )
                    proc.start()
                    child.close()
                    pool.append(ForkWorker(proc, conn))
            except BaseException:
                teardown_pool(pool)
                raise
            self._pool = pool
        return self._pool

    # -- shared-memory arena (fork-tier transport) -----------------------
    def _release_arena(self) -> None:
        if self._arena is not None:
            for shm in self._arena["segs"]:
                try:
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - raced
                    pass
            self._arena = None

    def _ensure_arena(self, headers: np.ndarray) -> dict:
        """Return an arena large enough for ``headers``; grow (re-create
        with 25% slack and fresh names) only when the trace outsizes the
        current one.  Workers notice the new names on their next group
        and swap attachments; the old (unlinked) segments free once the
        last attachment drops."""
        need_in = max(1, headers.nbytes)
        need_out = max(1, headers.shape[0] * 8)
        a = self._arena
        if (
            a is None
            or a["segs"][0].size < need_in
            or a["segs"][1].size < need_out
        ):
            from multiprocessing import shared_memory

            self._release_arena()
            segs = [
                shared_memory.SharedMemory(
                    create=True, size=size + size // 4
                )
                for size in (need_in, need_out, need_out)
            ]
            # Control segment: (generation, checksum) — exactly two
            # uint64 words, no growth slack needed.
            segs.append(shared_memory.SharedMemory(create=True, size=16))
            a = {"names": tuple(s.name for s in segs), "segs": segs}
            self._arena = a
        return a

    def _seal_arena(self, arena: dict, headers: np.ndarray) -> tuple[int, int]:
        """Write the arena control word *after* the trace: a fresh
        generation number plus a content checksum.  Returns the pair for
        the group descriptors — workers verify it before reading."""
        self._arena_generation += 1
        checksum = int(headers.sum(dtype=np.uint64))
        ctl = np.ndarray((2,), np.uint64, buffer=arena["segs"][3].buf)
        ctl[0] = self._arena_generation
        ctl[1] = checksum
        return (self._arena_generation, checksum)

    # ------------------------------------------------------------------
    def _chunk_bounds(
        self, n: int, chunk_size: int | None = None
    ) -> list[tuple[int, int]]:
        """Chunk grid over ``n`` packets, with the tiny-tail merge: a
        final chunk shorter than ``chunk_size / 4`` is folded into its
        predecessor (it would pay full dispatch cost for a sliver of
        work)."""
        size = self.chunk_size if chunk_size is None else chunk_size
        bounds = [
            (start, min(start + size, n)) for start in range(0, n, size)
        ]
        if (
            len(bounds) > 1
            and (bounds[-1][1] - bounds[-1][0]) * TAIL_MERGE_DIVISOR < size
        ):
            _, end = bounds.pop()
            bounds[-1] = (bounds[-1][0], end)
        return bounds

    def _planned_workers(self, n: int) -> int:
        """How many workers a multi-chunk, update-free run of ``n``
        packets could engage under the configured shard mode on this
        host."""
        if self._auto_one_shot():
            return self._worker_count() if self._auto_threads(n) else 1
        if self.shard_mode == "threads" or self._fork_engages():
            return self._worker_count()
        return 1

    def _effective_chunk_size(
        self, has_updates: bool, n: int | None = None
    ) -> int:
        """The dispatch granularity for one run: coalesced up to
        ``min_chunk_packets`` unless an update stream pins the epoch
        grid to the configured ``chunk_size``.

        Coalescing is worker-aware: merging a run into fewer chunks
        than the shards it could engage starves the pool — at 4 shards
        the ``min_chunk_packets`` floor used to fold a whole trace into
        one or two dispatches, serving it on 1-2 workers while the rest
        idled (the shards_4 < shards_2 throughput inversion).  When the
        planned worker count exceeds one, cap the coalesced size at
        ``ceil(n / workers)`` so every engaged worker gets a chunk,
        never dropping below the configured ``chunk_size``.
        """
        if has_updates or not self.min_chunk_packets:
            return self.chunk_size
        size = max(self.chunk_size, self.min_chunk_packets)
        workers = self._planned_workers(n or 0)
        if n and workers > 1:
            per_worker = -(-n // workers)
            size = max(self.chunk_size, min(size, per_worker))
        return size

    @staticmethod
    def _fork_available() -> bool:
        try:
            import multiprocessing

            return "fork" in multiprocessing.get_all_start_methods()
        except ImportError:  # pragma: no cover - multiprocessing is stdlib
            return False

    def _fork_engages(self, n_chunks: int | None = None) -> bool:
        """Whether the fork tier serves a run of ``n_chunks`` chunks:
        the platform offers ``fork`` and at least two workers engage (a
        1-worker pool pays fork + IPC for zero parallelism).  Explicit
        ``"processes"`` with ``shards > 1`` always qualifies; only
        ``"auto"``, clamped to the usable CPUs, can decline."""
        workers = self._worker_count()
        if n_chunks is not None:
            workers = min(workers, n_chunks)
        return workers >= 2 and self._fork_available()

    def _auto_one_shot(self) -> bool:
        """Whether ``run()`` serves under the ``auto`` cost rule: an
        ``auto`` pipeline that neither is persistent nor holds a
        session pool never forks."""
        return self.shard_mode == "auto" and not (
            self.persistent or self._held
        )

    def _worker_count(self) -> int:
        """The one worker-count rule both carriers follow, before
        clamping to the chunk count: explicit ``"processes"`` and
        ``"threads"`` run exactly ``shards`` workers (so their counters
        are the same on every host); ``"auto"`` runs only as many as
        this process has usable CPUs."""
        if self.shard_mode == "auto":
            return min(self.shards, usable_cpus())
        return self.shards

    def _auto_threads(self, n: int) -> bool:
        """The ``auto`` cost rule: threads when at least two usable
        workers would each get ``AUTO_THREADS_MIN_PACKETS_PER_WORKER``
        packets of an ``n``-packet run, inline otherwise."""
        workers = self._worker_count()
        return (
            workers >= 2
            and n // workers >= AUTO_THREADS_MIN_PACKETS_PER_WORKER
        )

    def fork_planned(self) -> bool:
        """Whether a streamed session forks worker processes — the
        question :class:`~repro.serve.Engine` asks (through
        :meth:`hold_pool`) before starting its serving threads.  A
        stream serves through a session-lifetime pool, so this describes
        ``"processes"`` and ``"auto"`` pipelines alike; a one-shot
        ``run()`` of a non-persistent ``"auto"`` pipeline never forks
        (see :meth:`_select_tier`)."""
        return self.shard_mode != "threads" and self._fork_engages()

    # -- update-stream plumbing -----------------------------------------
    def _normalise_updates(
        self, updates, bounds: list[tuple[int, int]]
    ) -> list[_ScheduledEntry]:
        """Sort, sequence-number and chunk-align an update stream.

        A batch scheduled at packet offset ``p`` takes effect at the
        first chunk whose start is >= ``p`` (batches beyond the last
        chunk start apply after the trace).  Equal offsets keep their
        given order, so the schedule is fully deterministic.
        """
        if not updates:
            return []
        from .updates import is_updatable

        if not is_updatable(self.classifier):
            raise ConfigError(
                f"backend {getattr(self.classifier, 'backend_name', '?')!r} "
                "does not serve rule updates; build it through "
                "repro.engine.updates.build_updatable_backend"
            )
        items: list[tuple[int, tuple[RuleUpdate, ...]]] = []
        for upd in updates:
            if isinstance(upd, ScheduledUpdate):
                items.append((upd.at_packet, tuple(upd.batch)))
            else:
                at, batch = upd
                items.append((int(at), tuple(batch)))
        items.sort(key=lambda item: item[0])  # stable
        starts = [b[0] for b in bounds]
        entries = []
        for at, batch in items:
            self._update_seq += 1
            entries.append(_ScheduledEntry(
                seq=self._update_seq,
                effect_chunk=bisect_left(starts, at),
                batch=batch,
            ))
        return entries

    def _apply_entry(
        self,
        entry: _ScheduledEntry,
        ordinal: int,
        latencies: list[float],
        plan: FaultPlan | None = None,
        report: FaultReport | None = None,
    ):
        """Apply one update batch to this process's classifier,
        watermarked (a batch an earlier tier or chunk loop already
        applied is skipped — returns ``None``) and supervised: an
        injected update fault fires *before* the apply, so a bounded
        retry re-applies a clean batch.  Per-batch apply seconds are
        appended to ``latencies``."""
        if entry.seq <= self._applied_seq:
            return None
        sup = self._supervisor
        attempt = 0
        while True:
            try:
                if plan is not None:
                    specs = plan.update_faults(ordinal, attempt)
                    if specs:
                        fire_update_specs(specs, ordinal)
                t0 = time.perf_counter()
                result = self.classifier.apply_updates(entry.batch)
                latencies.append(time.perf_counter() - t0)
                self._applied_seq = entry.seq
                return result
            except RECOVERABLE as exc:
                retriable = (
                    sup is not None
                    and sup.policy.fault_policy != "fail"
                    and attempt < sup.policy.max_retries
                )
                if not retriable:
                    raise (sup or Supervisor()).wrap_failure(
                        exc, tier="update", chunk=ordinal
                    ) from exc
                if report is not None:
                    report.update_retries += 1
                time.sleep(sup.backoff_s(attempt))
                attempt += 1

    def _parent_apply(
        self,
        entries: list[_ScheduledEntry],
        latencies: list[float],
        plan: FaultPlan | None = None,
        report: FaultReport | None = None,
    ) -> list:
        """Apply ``entries`` to this process's classifier (watermarked,
        so batches a fallback chunk loop already applied are skipped).
        Per-batch apply seconds are appended to ``latencies``."""
        results = []
        for ordinal, entry in enumerate(entries):
            result = self._apply_entry(entry, ordinal, latencies, plan, report)
            if result is not None:
                results.append(result)
        return results

    # -- tier selection & supervised dispatch ---------------------------
    def _select_tier(self, n_chunks: int, n: int) -> str:
        """The worker tier a run of ``n`` packets in ``n_chunks`` chunks
        starts on (supervision changes *recovery*, never the fault-free
        tier choice).  ``auto`` without a persistent or held pool never
        forks: a fork pool per run loses to the thread tier in every
        cell measured, so the cost rule picks threads or inline."""
        if self.shards > 1 and n_chunks > 1:
            if self.shard_mode == "threads":
                return "threads"
            if self._auto_one_shot():
                return "threads" if self._auto_threads(n) else "inline"
            if self._fork_engages(n_chunks):
                return "processes"
        return "inline"

    def _tier_available(self, tier: str) -> bool:
        return tier != "processes" or self._fork_available()

    def _timeout_s(self) -> float:
        if self._supervisor is None:
            return 0.0
        return self._supervisor.policy.chunk_timeout_s

    def _supervised(self, plan: FaultPlan | None) -> bool:
        """Whether dispatches route through the supervisor: either a
        policy was configured or this run injects faults (a plan
        without a policy gets fail-fast supervision — typed errors,
        no silent hangs, no retries)."""
        return self._supervisor is not None or plan is not None

    def _run_supervised(
        self,
        tier: str,
        headers: np.ndarray,
        bounds: list[tuple[int, int]],
        entries: list[_ScheduledEntry],
        update_results: list,
        update_latencies: list[float],
        plan: FaultPlan | None,
    ) -> tuple[list[ChunkOutput], int, FaultReport]:
        """Dispatch with recovery: bounded same-tier retries, then —
        under ``fault_policy="degrade"`` — the tier ladder.

        Whole-dispatch replay is safe exactly because the parent's
        classifier is caught up only *after* a successful fork-tier
        dispatch: a failed attempt leaves the parent at the pre-run
        epoch, the retry re-forks from that snapshot, and every group
        descriptor re-ships its chunks' exact update log.  The thread and
        inline tiers apply updates *mid*-dispatch instead, so their
        recovery is per-chunk (inside the tier) — if one of them still
        fails after updates took effect, replay would serve early
        chunks against a later epoch, and the supervisor chooses a
        typed error over silently breaking bit-identity.
        """
        sup = self._supervisor or Supervisor()
        policy = sup.policy
        report = FaultReport()
        ladder = [tier]
        if policy.fault_policy == "degrade":
            start = DEGRADATION_LADDER.index(tier)
            ladder = [
                t for t in DEGRADATION_LADDER[start:]
                if self._tier_available(t)
            ]
        seq_before = self._applied_seq
        last_exc: BaseException | None = None
        detected = 0.0
        for rung, t in enumerate(ladder):
            if rung:
                report.degradations.append(
                    f"{ladder[rung - 1]}->{t}:{type(last_exc).__name__}"
                )
                report.replays += len(bounds)
                report.recovery_s.append(time.perf_counter() - detected)
            attempt = 0
            while True:
                try:
                    outputs, workers = self._run_tier(
                        t, headers, bounds, entries,
                        update_results, update_latencies,
                        plan=plan, attempt=attempt, report=report,
                    )
                    return outputs, workers, report
                except RECOVERABLE as exc:
                    detected = time.perf_counter()
                    last_exc = exc
                    report.record_failure(exc)
                    if policy.fault_policy == "fail":
                        raise sup.wrap_failure(exc, tier=t) from exc
                    if self._applied_seq != seq_before:
                        raise sup.wrap_failure(exc, tier=t) from exc
                    if attempt < policy.max_retries:
                        report.retries += 1
                        report.replays += len(bounds)
                        time.sleep(sup.backoff_s(attempt))
                        report.recovery_s.append(
                            time.perf_counter() - detected
                        )
                        attempt += 1
                        continue
                    break  # retries exhausted on this tier
        raise sup.wrap_failure(last_exc, tier=ladder[-1]) from last_exc

    def _run_tier(
        self,
        tier: str,
        headers: np.ndarray,
        bounds: list[tuple[int, int]],
        entries: list[_ScheduledEntry],
        update_results: list,
        update_latencies: list[float],
        *,
        plan: FaultPlan | None,
        attempt: int,
        report: FaultReport | None,
    ) -> tuple[list[ChunkOutput], int]:
        """One full dispatch attempt on one worker tier, including the
        tier's update-application contract."""
        if tier == "threads":
            outputs, workers = self._run_threads(
                headers, bounds, entries, update_results, update_latencies,
                plan=plan, attempt=attempt, report=report,
            )
            # Batches scheduled past the last chunk apply after the trace.
            update_results.extend(
                self._parent_apply(entries, update_latencies, plan, report)
            )
        elif tier == "processes":
            try:
                outputs, workers = self._run_processes(
                    headers, bounds, entries, plan=plan, attempt=attempt
                )
            except BaseException:
                # A failed dispatch poisons the pool (and possibly the
                # arena); reap both so a retry re-forks from the parent
                # snapshot and reseals a fresh arena.
                self.close()
                raise
            if not (self.persistent or self._held):
                self.close()  # a run-scoped pool dies with its run
            # The parent's copy catches up after the run (its state then
            # matches the workers', and later forks inherit it).  On a
            # failed dispatch this is never reached — which is what
            # makes whole-dispatch replay epoch-safe.
            update_results.extend(
                self._parent_apply(entries, update_latencies, plan, report)
            )
        else:
            outputs, workers = self._run_inline(
                headers, bounds, entries, update_results, update_latencies,
                plan=plan, attempt=attempt, report=report,
            )
        return outputs, workers

    # ------------------------------------------------------------------
    def run(
        self, trace: PacketTrace, updates=None, faults=None
    ) -> PipelineResult:
        """Classify ``trace``, optionally interleaving a rule-update
        stream; results are in trace order regardless of shard
        scheduling, and every chunk is classified against one
        well-defined ruleset epoch.

        ``faults`` injects a deterministic
        :class:`~repro.engine.faults.FaultPlan` (or dict / spec list /
        path) into this run's dispatches; recovery follows the
        pipeline's supervision policy, and ``PipelineResult.fault``
        accounts for everything observed.
        """
        from .updates import is_updatable

        plan = FaultPlan.coerce(faults)
        headers = trace.headers
        n = headers.shape[0]
        bounds = self._chunk_bounds(
            n, self._effective_chunk_size(bool(updates), n)
        )
        entries = self._normalise_updates(updates, bounds)
        # Epochs are reported only for genuinely updatable backends —
        # a cache wrapper around a non-updatable classifier merely
        # *delegates* and must keep reporting None.
        base_epoch = (
            int(getattr(self.classifier, "update_epoch", 0))
            if is_updatable(self.classifier) else None
        )
        update_results: list = []
        update_latencies: list[float] = []
        tier = self._select_tier(len(bounds), n)
        fault_report: FaultReport | None = None
        started = time.perf_counter()
        if self._supervised(plan):
            outputs, workers, fault_report = self._run_supervised(
                tier, headers, bounds, entries,
                update_results, update_latencies, plan,
            )
        else:
            outputs, workers = self._run_tier(
                tier, headers, bounds, entries,
                update_results, update_latencies,
                plan=None, attempt=0, report=None,
            )
        if entries and self._pool is not None:
            # Keep the long-lived workers replayable: later runs ship
            # these batches too (applied-at-most-once via the watermark).
            self._pool_log.extend((e.seq, e.batch) for e in entries)
            if len(self._pool_log) > POOL_LOG_MAX_BATCHES:
                # Bound the shipped log (and parent memory): the
                # parent is fully caught up after every run, so tearing
                # the pool down here is safe — the next run re-forks
                # from the current state with an empty log.
                self.close()
        elapsed = time.perf_counter() - started
        return self._aggregate(
            outputs, bounds, n, elapsed, workers,
            entries=entries, base_epoch=base_epoch,
            update_results=update_results,
            update_latencies=update_latencies,
            fault=fault_report,
        )

    def _run_processes(
        self,
        headers: np.ndarray,
        bounds: list[tuple[int, int]],
        entries: list[_ScheduledEntry],
        *,
        plan: FaultPlan | None = None,
        attempt: int = 0,
    ) -> tuple[list[ChunkOutput], int]:
        """One run on the fork tier, over the shared-memory arena.

        The trace is copied once into the arena's input segment and
        sealed.  Each engaged worker then gets one descriptor for its
        whole chunk group — segment names, trace shape, the expected
        control word, the update log as ``(seq, effect chunk, batch)``
        (the pool's earlier batches plus this run's), and per chunk
        ``(index, bounds, fault specs)`` — scatters its match/occupancy
        slices into the shared output segments and replies once with
        scalars.
        """
        n_chunks = len(bounds)
        pool = self._ensure_pool(headers.shape[1], n_chunks)
        workers = min(len(pool), n_chunks)
        arena = self._ensure_arena(headers)
        n = headers.shape[0]
        shm_in, shm_out, shm_occ, shm_ctl = arena["segs"]
        np.ndarray(headers.shape, headers.dtype, buffer=shm_in.buf)[:] = (
            headers
        )
        ctl_expected = self._seal_arena(arena, headers)
        if plan is not None and plan.arena_faults(attempt):
            # Injected corruption: flip checksum bits *after* sealing —
            # to the workers' fence check this is exactly what a torn
            # or stale arena write looks like.
            ctl = np.ndarray((2,), np.uint64, buffer=shm_ctl.buf)
            ctl[1] = ctl[1] ^ np.uint64(0xDEAD)
        # Earlier runs' batches are in effect from the first chunk on.
        log = tuple((seq, -1, batch) for seq, batch in self._pool_log) + tuple(
            (e.seq, e.effect_chunk, e.batch)
            for e in entries
            if e.effect_chunk < n_chunks
        )
        groups: list[list[int]] = [[] for _ in range(workers)]
        for span in epoch_spans(n_chunks, entries):
            for shard, ids in enumerate(shard_groups(span, workers)):
                groups[shard].extend(ids)
        for shard, ids in enumerate(groups):
            if not ids:
                continue  # collect_replies expects no reply either
            chunks = tuple(
                (
                    i, bounds[i],
                    plan.worker_faults(i, attempt, shard=shard)
                    if plan is not None else (),
                )
                for i in ids
            )
            try:
                pool[shard].conn.send((
                    arena["names"], headers.shape, str(headers.dtype),
                    ctl_expected, log, chunks,
                ))
            except OSError as exc:
                raise WorkerCrashError(
                    f"shard {shard} pipe broke at dispatch: {exc!r}",
                    shard=shard, cause=exc,
                ) from exc
        replies = collect_replies(
            pool[:workers], groups, timeout_s=self._timeout_s()
        )
        match = np.ndarray((n,), np.int64, buffer=shm_out.buf).copy()
        has_occ = all(has for reply in replies for has, _ in reply)
        occupancy = (
            np.ndarray((n,), np.int64, buffer=shm_occ.buf).copy()
            if has_occ
            else None
        )
        outputs: list = [None] * n_chunks
        for shard, (ids, reply) in enumerate(zip(groups, replies)):
            for i, (_, cache) in zip(ids, reply):
                s, e = bounds[i]
                outputs[i] = (
                    match[s:e],
                    None if occupancy is None else occupancy[s:e],
                    cache,
                    shard,
                )
        return outputs, workers

    # -- thread tier ----------------------------------------------------
    def _ensure_thread_clones(self, workers: int) -> list:
        """Per-shard serving objects for the thread tier.

        Flow-cached classifiers get one private cache clone per shard
        (kept across runs, so shard caches stay warm); the clones share
        the wrapped backend, whose batch kernels are pure NumPy and safe
        to walk concurrently.  Bare backends are shared directly.  A
        backend ``update_epoch`` change since the last run epoch-bumps
        every clone cache, so out-of-run updates never serve stale
        entries.
        """
        base = self.classifier
        if not (hasattr(base, "clone") and hasattr(base, "cache")):
            return [base] * workers
        if not self._thread_clones:
            self._thread_epoch = int(getattr(base, "update_epoch", 0))
        while len(self._thread_clones) < workers:
            self._thread_clones.append(base.clone())
        current = int(getattr(base, "update_epoch", 0))
        if current != self._thread_epoch:
            for clone in self._thread_clones:
                clone.cache.advance_epoch()
            self._thread_epoch = current
        return self._thread_clones[:workers]

    def _run_threads(
        self,
        headers: np.ndarray,
        bounds: list[tuple[int, int]],
        entries: list[_ScheduledEntry],
        update_results: list,
        update_latencies: list[float],
        *,
        plan: FaultPlan | None = None,
        attempt: int = 0,
        report: FaultReport | None = None,
    ) -> tuple[list[ChunkOutput], int]:
        """One run over a shard-affine thread pool.

        Chunks follow the static schedule (:func:`epoch_spans`,
        :func:`shard_groups`); each shard serves its group *in order* on
        one future, so a shard's private cache sees the same chunk
        sequence a process shard does.  Updates are epoch barriers: all
        chunks of one epoch span drain before the batch applies on the
        (serving) thread, then every shard cache is epoch-invalidated —
        identical matches and counters to the fork tier.

        Supervision is per shard group: a failed or deadline-overrun
        future's chunks are re-served inline on the parent classifier —
        still strictly between the same two update barriers, so the
        replay stays in its epoch.  A hung worker thread cannot be
        killed, so its executor is abandoned (``shutdown(wait=False)``)
        and replaced; the abandoned future's eventual result is never
        read, making its late writes harmless.
        """
        from concurrent.futures import ThreadPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        from ..core.errors import ChunkTimeoutError

        sup = self._supervisor
        timeout = self._timeout_s()
        workers = min(self._worker_count(), len(bounds))
        clones = self._ensure_thread_clones(workers)
        cached = clones[0] is not self.classifier
        outputs: list[ChunkOutput | None] = [None] * len(bounds)

        def _shard_serve(clone, chunk_ids, shard):
            out = []
            for i in chunk_ids:
                if plan is not None:
                    specs = plan.worker_faults(i, attempt, shard=shard)
                    if specs:
                        fire_worker_specs(
                            specs, in_process=True, chunk=i, shard=shard,
                            timeout_s=timeout,
                        )
                out.append(
                    (i, _run_chunk_local(clone, headers, bounds[i]) + (shard,))
                )
            return out

        idx = 0
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )
        abandoned = False
        try:
            for span in epoch_spans(len(bounds), entries):
                while (
                    idx < len(entries)
                    and entries[idx].effect_chunk <= span.start
                ):
                    entry = entries[idx]
                    result = self._apply_entry(
                        entry, idx, update_latencies, plan, report
                    )
                    if result is not None:
                        update_results.append(result)
                        if cached:
                            for clone in clones:
                                clone.cache.advance_epoch()
                            self._thread_epoch = int(
                                getattr(self.classifier, "update_epoch", 0)
                            )
                    idx += 1
                # Flush lazily-patched kernel state on the serving thread
                # before shards walk the structures concurrently.
                warm_batch_state(self.classifier, headers.shape[1])
                futures = [
                    (s, ids, pool.submit(_shard_serve, clones[s], ids, s))
                    for s, ids in enumerate(shard_groups(span, workers))
                ]
                for s, ids, fut in futures:
                    deadline = timeout * max(1, len(ids)) if timeout else None
                    try:
                        served = fut.result(timeout=deadline)
                    except FutureTimeout:
                        exc = ChunkTimeoutError(
                            f"thread shard {s} exceeded its {deadline:.2f}s "
                            f"group deadline ({len(ids)} chunks)",
                            shard=s, cause="timeout",
                        )
                        served = self._thread_fallback(
                            exc, s, ids, headers, bounds, plan, attempt,
                            report, sup,
                        )
                        # The hung worker thread is a write-off: swap in
                        # a fresh executor for the remaining groups and
                        # abandon the old one without joining it.
                        stale = pool
                        pool = ThreadPoolExecutor(
                            max_workers=workers,
                            thread_name_prefix="repro-shard",
                        )
                        stale.shutdown(wait=False)
                        abandoned = True
                    except RECOVERABLE as exc:
                        served = self._thread_fallback(
                            exc, s, ids, headers, bounds, plan, attempt,
                            report, sup,
                        )
                    for i, out in served:
                        outputs[i] = out
        finally:
            pool.shutdown(wait=not abandoned)
        return outputs, workers

    def _thread_fallback(
        self, exc, shard, chunk_ids, headers, bounds, plan, attempt,
        report, sup,
    ):
        """Re-serve one failed thread shard's chunk group inline on the
        parent classifier.  The group sits strictly between two update
        barriers, so replaying it chunk-by-chunk stays in its epoch."""
        if report is not None:
            report.record_failure(exc, shard=shard)
        if sup is None or sup.policy.fault_policy == "fail":
            raise (sup or Supervisor()).wrap_failure(
                exc, tier="threads", shard=shard
            ) from exc
        if report is not None:
            report.retries += 1
            report.replays += len(chunk_ids)
        return [
            (
                i,
                self._serve_chunk_inline(
                    headers, bounds[i], i, plan, attempt + 1, report,
                    shard=shard,
                ) + (shard,),
            )
            for i in chunk_ids
        ]

    # -- inline tier ----------------------------------------------------
    def _serve_chunk_inline(
        self,
        headers: np.ndarray,
        b: tuple[int, int],
        index: int,
        plan: FaultPlan | None = None,
        attempt: int = 0,
        report: FaultReport | None = None,
        shard: int | None = None,
    ):
        """Serve one chunk on the parent classifier with per-chunk
        bounded retry (the inline tier, and the thread tier's fallback
        path, both land here)."""
        sup = self._supervisor
        tries = 0
        while True:
            try:
                if plan is not None:
                    specs = plan.worker_faults(
                        index, attempt + tries, shard=shard
                    )
                    if specs:
                        fire_worker_specs(
                            specs, in_process=True, chunk=index, shard=shard,
                            timeout_s=self._timeout_s(),
                        )
                return _run_chunk_local(self.classifier, headers, b)
            except RECOVERABLE as exc:
                if report is not None:
                    report.record_failure(exc, shard=shard)
                retriable = (
                    sup is not None
                    and sup.policy.fault_policy != "fail"
                    and tries < sup.policy.max_retries
                )
                if not retriable:
                    raise (sup or Supervisor()).wrap_failure(
                        exc, tier="inline", chunk=index, shard=shard
                    ) from exc
                if report is not None:
                    report.retries += 1
                    report.replays += 1
                time.sleep(sup.backoff_s(tries))
                tries += 1

    def _run_inline(
        self,
        headers: np.ndarray,
        bounds: list[tuple[int, int]],
        entries: list[_ScheduledEntry],
        update_results: list,
        update_latencies: list[float],
        *,
        plan: FaultPlan | None = None,
        attempt: int = 0,
        report: FaultReport | None = None,
    ) -> tuple[list[ChunkOutput], int]:
        """Single-process serving loop — the ladder floor.  Updates are
        interleaved at their chunk boundaries; under supervision each
        *chunk* (not the dispatch) is retried, because batches already
        applied mid-loop make whole-dispatch replay epoch-unsafe."""
        outputs: list[ChunkOutput] = []
        idx = 0
        for i, b in enumerate(bounds):
            while idx < len(entries) and entries[idx].effect_chunk <= i:
                result = self._apply_entry(
                    entries[idx], idx, update_latencies, plan, report
                )
                if result is not None:
                    update_results.append(result)
                idx += 1
            outputs.append(
                self._serve_chunk_inline(
                    headers, b, i, plan, attempt, report
                ) + (0,)
            )
        # Batches scheduled past the last chunk apply after the trace.
        while idx < len(entries):
            result = self._apply_entry(
                entries[idx], idx, update_latencies, plan, report
            )
            if result is not None:
                update_results.append(result)
            idx += 1
        return outputs, 1

    def _aggregate(
        self,
        outputs: list[ChunkOutput],
        bounds: list[tuple[int, int]],
        n: int,
        elapsed: float,
        workers: int,
        entries: list[_ScheduledEntry] | None = None,
        base_epoch: int | None = None,
        update_results: list | None = None,
        update_latencies: list[float] | None = None,
        fault: FaultReport | None = None,
    ) -> PipelineResult:
        entries = entries or []
        # Epoch of chunk i = version at run start + batches in effect by
        # chunk i; deterministic whichever process applied them.
        effects = [e.effect_chunk for e in entries]
        ops_at: dict[int, int] = {}
        for e in entries:
            ops_at[e.effect_chunk] = ops_at.get(e.effect_chunk, 0) + len(
                e.batch
            )
        chunks: list[ChunkStats] = []
        for i, ((start, end), (match, occ, cache, shard)) in enumerate(
            zip(bounds, outputs)
        ):
            epoch = (
                None if base_epoch is None
                else base_epoch + bisect_left(effects, i + 1)
            )
            chunks.append(
                ChunkStats(
                    index=i,
                    start=start,
                    n_packets=end - start,
                    matched=int((match >= 0).sum()),
                    occupancy_sum=None if occ is None else int(occ.sum()),
                    cache_hits=None if cache is None else cache[0],
                    cache_misses=None if cache is None else cache[1],
                    cache_evictions=None if cache is None else cache[2],
                    epoch=epoch,
                    updates_applied=ops_at.get(i, 0),
                    shard=shard,
                )
            )
        if outputs:
            match = np.concatenate([m for m, _, _, _ in outputs])
            occs = [o for _, o, _, _ in outputs]
            occupancy = (
                np.concatenate(occs) if all(o is not None for o in occs) else None
            )
        else:
            match = np.empty(0, dtype=np.int64)
            occupancy = None
        caches = [c for _, _, c, _ in outputs]
        has_cache = bool(caches) and all(c is not None for c in caches)
        skipped = sum(
            getattr(r, "skipped", 0) for r in (update_results or [])
        )
        return PipelineResult(
            match=match,
            chunks=chunks,
            n_shards=workers,
            chunk_size=self.chunk_size,
            elapsed_s=elapsed,
            backend=getattr(self.classifier, "backend_name",
                            type(self.classifier).__name__),
            occupancy=occupancy,
            cache_hits=sum(c[0] for c in caches) if has_cache else None,
            cache_misses=sum(c[1] for c in caches) if has_cache else None,
            cache_evictions=sum(c[2] for c in caches) if has_cache else None,
            update_batches=len(entries),
            update_ops=sum(len(e.batch) for e in entries),
            update_skipped=skipped,
            update_latencies_s=tuple(update_latencies or ()),
            final_epoch=(
                None if base_epoch is None else base_epoch + len(entries)
            ),
            fault=fault,
        )


def _run_chunk_local(
    classifier: Classifier, headers: np.ndarray, bounds: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray | None, tuple[int, int, int] | None]:
    start, end = bounds
    stats: BatchStats = batch_stats_of(classifier, headers[start:end])
    cache = (
        None
        if stats.cache_hits is None or stats.cache_misses is None
        else (
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions or 0,
        )
    )
    return stats.match, stats.occupancy, cache
