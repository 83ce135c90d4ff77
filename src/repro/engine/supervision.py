"""Worker supervision: deadlines, crash detection, retry, degradation.

The serving pipeline's fault-tolerance brain.  A
:class:`SupervisionPolicy` (built from
:class:`~repro.serve.EngineConfig`'s ``fault_policy`` /
``max_retries`` / ``chunk_timeout_s`` fields) is handed to
:class:`~repro.engine.pipeline.ClassificationPipeline`, which routes
every dispatch through a :class:`Supervisor`:

* :func:`collect_replies` is the fork tier's one collect loop: each
  worker process serves a static chunk group and replies once, and the
  loop enforces a **group deadline** (``chunk_timeout_s`` times the
  chunks in the group, the thread tier's rule) and watches every
  outstanding worker for **non-zero exits** — a crashed worker surfaces
  as a typed :class:`~repro.core.errors.WorkerCrashError` naming its
  shard within one poll interval instead of hanging the dispatch;
* retries use **exponential backoff with seeded jitter**
  (:meth:`Supervisor.backoff_s`) and every fork-tier retry tears the
  pool down and re-forks from the parent — the parent applies update
  batches only *after* a successful dispatch, so a replayed chunk
  re-applies its exact :class:`~repro.core.updates.ScheduledUpdate`
  prefix in the fresh workers and the run stays bit-identical;
* when retries at one tier are exhausted and the policy is
  ``degrade``, the pipeline walks the **degradation ladder**
  ``processes -> threads -> inline`` (starting at the configured tier)
  and records every step taken;
* :func:`teardown_pool` bounds pool teardown: ``terminate()`` then a
  per-worker ``join`` deadline, then ``kill()`` for stragglers — a
  hung worker cannot wedge ``close()``, and the shared-memory arena is
  reaped by the pipeline right after.

Shard labels are the same on every tier: the 0-based index of the
worker's chunk group (0 on the inline tier).  Everything observed lands
in a :class:`FaultReport` carried on
:class:`~repro.engine.pipeline.PipelineResult` (and merged into
:class:`~repro.serve.EngineReport`): retries, chunk replays,
degradations, crash counts per shard, quarantined packets and
recovery latencies.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.errors import (
    ArenaCorruptionError,
    ChunkTimeoutError,
    ConfigError,
    IngestError,
    InjectedFault,
    ServingFaultError,
    WorkerCrashError,
)

#: Policies ``fault_policy`` accepts: ``fail`` raises a typed
#: :class:`ServingFaultError` on the first fault, ``retry`` replays the
#: dispatch (bounded, backed off) on the same tier, ``degrade`` retries
#: and then walks the worker-tier ladder downward.
FAULT_POLICIES = ("fail", "retry", "degrade")

#: The worker-tier degradation ladder, most to least capable.  A run
#: starts at its configured tier and, under ``fault_policy="degrade"``,
#: falls to the next rung when retries on the current one are
#: exhausted.  ``processes`` is the fork tier (whichever lifetime its
#: pool has); ``inline`` (single-process, per-chunk retry) is the
#: floor — it shares no pool, no fork and no arena with anything.
DEGRADATION_LADDER = ("processes", "threads", "inline")

#: Exceptions the supervisor may recover from (everything else — a
#: genuine bug, a ConfigError — propagates untouched).
RECOVERABLE = (
    InjectedFault,
    ArenaCorruptionError,
    WorkerCrashError,
    ChunkTimeoutError,
    IngestError,
)

#: Poll interval of the dispatch monitor loop (seconds).
_POLL_S = 0.02

#: Grace period to reap a worker whose pipe broke, so the crash error
#: can name its exit code.
_CRASH_GRACE_S = 0.1


@dataclass(frozen=True)
class SupervisionPolicy:
    """Validated fault-handling policy for one pipeline.

    ``chunk_timeout_s = 0`` disables the deadline (crash detection via
    exit-code watch stays on).  Backoff for retry ``k`` is
    ``backoff_base_s * 2**k`` plus seeded jitter, capped at
    ``backoff_max_s``.
    """

    fault_policy: str = "fail"
    max_retries: int = 2
    chunk_timeout_s: float = 0.0
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fault_policy not in FAULT_POLICIES:
            raise ConfigError(
                f"unknown fault_policy {self.fault_policy!r}; "
                f"expected one of {', '.join(FAULT_POLICIES)}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.chunk_timeout_s < 0:
            raise ConfigError(
                f"chunk_timeout_s must be >= 0 (0 = no deadline), "
                f"got {self.chunk_timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff seconds must be >= 0")


@dataclass
class FaultReport:
    """Everything the supervisor observed during one run (or one merged
    streamed session).  All counters are zero on a fault-free run."""

    #: Dispatch retries taken (any tier, any cause).
    retries: int = 0
    #: Chunk dispatches replayed (a retried fork dispatch replays every
    #: chunk of the run; inline/thread retries replay one chunk each).
    replays: int = 0
    #: Ladder steps taken, e.g.
    #: ``"processes->threads:ArenaCorruptionError"``.
    degradations: list[str] = field(default_factory=list)
    worker_crashes: int = 0
    timeouts: int = 0
    arena_faults: int = 0
    #: Injected (or worker-raised) chunk errors recovered from.
    chunk_errors: int = 0
    update_retries: int = 0
    ingest_retries: int = 0
    #: Malformed trace lines dead-lettered by ingestion quarantine.
    quarantined: int = 0
    #: Crash count per shard label (the worker's 0-based chunk-group
    #: index, the same label on every tier).
    shard_crashes: dict = field(default_factory=dict)
    #: Seconds from each fault's detection to the replacement dispatch
    #: starting (teardown + backoff), one entry per retry/degradation.
    recovery_s: list = field(default_factory=list)

    def record_failure(self, exc: BaseException, shard=None) -> None:
        """Classify one recoverable failure into the counters."""
        if isinstance(exc, WorkerCrashError):
            self.worker_crashes += 1
            label = exc.shard if exc.shard is not None else shard
            if label is not None:
                self.shard_crashes[label] = (
                    self.shard_crashes.get(label, 0) + 1
                )
        elif isinstance(exc, ChunkTimeoutError):
            self.timeouts += 1
        elif isinstance(exc, ArenaCorruptionError):
            self.arena_faults += 1
        elif isinstance(exc, IngestError):
            pass  # counted via ingest_retries at the ingestion site
        else:
            self.chunk_errors += 1

    @property
    def faults(self) -> int:
        """Total faults observed (crashes + timeouts + arena + errors)."""
        return (
            self.worker_crashes
            + self.timeouts
            + self.arena_faults
            + self.chunk_errors
        )

    def any(self) -> bool:
        return bool(
            self.faults
            or self.retries
            or self.degradations
            or self.update_retries
            or self.ingest_retries
            or self.quarantined
        )

    def merge(self, other: "FaultReport") -> None:
        self.retries += other.retries
        self.replays += other.replays
        self.degradations.extend(other.degradations)
        self.worker_crashes += other.worker_crashes
        self.timeouts += other.timeouts
        self.arena_faults += other.arena_faults
        self.chunk_errors += other.chunk_errors
        self.update_retries += other.update_retries
        self.ingest_retries += other.ingest_retries
        self.quarantined += other.quarantined
        for label, count in other.shard_crashes.items():
            self.shard_crashes[label] = (
                self.shard_crashes.get(label, 0) + count
            )
        self.recovery_s.extend(other.recovery_s)

    @classmethod
    def merged(cls, reports) -> "FaultReport | None":
        out: FaultReport | None = None
        for r in reports:
            if r is None:
                continue
            if out is None:
                out = cls()
            out.merge(r)
        return out

    def to_dict(self) -> dict:
        out = {
            "faults": self.faults,
            "retries": self.retries,
            "replays": self.replays,
            "degradations": list(self.degradations),
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "arena_faults": self.arena_faults,
            "chunk_errors": self.chunk_errors,
            "update_retries": self.update_retries,
            "ingest_retries": self.ingest_retries,
            "quarantined": self.quarantined,
            "shard_crashes": {
                str(k): v for k, v in sorted(self.shard_crashes.items())
            },
        }
        if self.recovery_s:
            out["recovery_s"] = [float(s) for s in self.recovery_s]
            out["recovery_max_s"] = float(max(self.recovery_s))
        return out


class Supervisor:
    """Policy + seeded jitter + failure bookkeeping for one pipeline."""

    def __init__(self, policy: SupervisionPolicy | None = None) -> None:
        self.policy = policy or SupervisionPolicy()
        self._rng = random.Random(self.policy.seed)

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff with deterministic (seeded) jitter."""
        base = self.policy.backoff_base_s * (2 ** max(0, attempt))
        jitter = 1.0 + 0.25 * self._rng.random()
        return min(self.policy.backoff_max_s, base * jitter)

    def wrap_failure(
        self, exc: BaseException, *, tier: str, chunk=None, shard=None
    ) -> ServingFaultError:
        """Lift any recoverable failure into the typed serving error the
        ``fail`` policy (and exhausted retries) raise."""
        if getattr(exc, "shard", None) is not None:
            shard = exc.shard
        chunk = getattr(exc, "chunk", None) if getattr(
            exc, "chunk", None
        ) is not None else chunk
        return ServingFaultError(
            f"serving fault on tier {tier!r} "
            f"(shard={shard}, chunk={chunk}): {exc}",
            shard=shard,
            chunk=chunk,
            tier=tier,
            cause=exc,
        )


class ForkWorker(NamedTuple):
    """One fork-tier worker: its process and the parent's end of its
    duplex pipe."""

    proc: object
    conn: object


def collect_replies(workers, groups, *, timeout_s: float = 0.0) -> list:
    """Wait for the one reply each engaged worker sends for its chunk
    group; ``groups[s]`` is worker ``s``'s chunk list (an empty group
    was never dispatched: it waits for no reply and yields ``()``).

    Returns the replies in shard order, or raises:

    * the worker's own exception (e.g. an injected fault or an arena
      fence trip), as pickled back through its pipe;
    * :class:`WorkerCrashError` when an outstanding worker exits
      non-zero or its pipe breaks;
    * :class:`ChunkTimeoutError` when a worker is still outstanding
      ``timeout_s`` times its group's chunk count after dispatch.
    """
    from multiprocessing.connection import wait

    started = time.monotonic()
    replies: list = [()] * len(workers)
    pending = {s: w for s, w in enumerate(workers) if groups[s]}

    def crash(s: int, cause) -> WorkerCrashError:
        proc = pending[s].proc
        proc.join(_CRASH_GRACE_S)
        return WorkerCrashError(
            f"shard {s} (pid {proc.pid}) exited with code "
            f"{proc.exitcode} while serving chunks {groups[s]}",
            shard=s,
            cause=cause if proc.exitcode is None else f"exit:{proc.exitcode}",
        )

    while pending:
        ready = wait([w.conn for w in pending.values()], _POLL_S)
        for s, w in list(pending.items()):
            if w.conn in ready:
                try:
                    ok, payload = w.conn.recv()
                except (EOFError, OSError) as exc:
                    raise crash(s, exc) from None
                if not ok:
                    raise payload
                replies[s] = payload
                del pending[s]
        now = time.monotonic()
        for s, w in pending.items():
            if w.proc.exitcode not in (None, 0):
                raise crash(s, None)
            limit = timeout_s * len(groups[s])
            if timeout_s > 0 and now - started > limit:
                raise ChunkTimeoutError(
                    f"shard {s} exceeded its {limit:.2f}s group deadline "
                    f"({len(groups[s])} chunks)",
                    shard=s,
                    cause="timeout",
                )
    return replies


def teardown_pool(workers, *, deadline_s: float = 5.0) -> None:
    """Terminate the fork-tier ``workers`` and reap them within a
    bounded deadline: ``terminate()`` (SIGTERM) each, per-worker
    ``join`` slices of the remaining budget, then ``kill()`` (SIGKILL)
    for anything still alive — a worker stuck in an uninterruptible
    state cannot wedge ``close()``, and no orphan processes are left
    behind."""
    for w in workers:
        w.conn.close()
        if w.proc.exitcode is None:
            w.proc.terminate()
    stop_at = time.monotonic() + deadline_s
    for w in workers:
        budget = stop_at - time.monotonic()
        if budget > 0:
            w.proc.join(budget)
        if w.proc.is_alive():  # pragma: no cover - SIGTERM-immune worker
            w.proc.kill()
            w.proc.join(1.0)
