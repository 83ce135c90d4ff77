"""Seeded workload inputs and the linear-search verdict oracle.

Every input is a pure function of ``(workload, seed)``.  The ruleset is
the line card's configuration and stays fixed across seeds (the seed
drives the traffic and the rule churn), so run-to-run spread measures
the serving path rather than how deep one random tree happens to be.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.classbench import (
    churn_schedule,
    generate_ruleset,
    generate_trace,
    generate_zipf_trace,
)
from repro.core.ruleset import RuleSet
from repro.core.updates import OP_INSERT
from repro.engine.pipeline import DEFAULT_CHUNK_SIZE, TAIL_MERGE_DIVISOR
from repro.serve import DEFAULT_SEGMENT_PACKETS

#: Fixed ACL seed: every seed serves the same ruleset.
RULESET_SEED = 1
N_PACKETS = 1_000_000
#: Update operations per 1000 packets on ``churn_updates``: 2000 ops in
#: batches of 8 gives 250 batches per pass.
CHURN_RATE_PER_KPKT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n_rules: int
    #: ``"file"``: a ClassBench trace file is the input; ``"memory"``:
    #: in-memory segments.
    source: str


#: Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bare_uniform", 5000, "file"),
        Workload("linecard_zipf", 1000, "file"),
        Workload("churn_updates", 1000, "memory"),
    )
}


def ruleset_for(workload: Workload) -> RuleSet:
    return generate_ruleset("acl1", workload.n_rules, seed=RULESET_SEED)


def trace_for(workload: Workload, ruleset: RuleSet, seed: int) -> np.ndarray:
    """The workload's ``(N_PACKETS, ndim)`` header matrix."""
    if workload.name == "linecard_zipf":
        trace = generate_zipf_trace(
            ruleset, N_PACKETS, n_flows=50_000, skew=1.0, seed=seed
        )
    else:
        trace = generate_trace(ruleset, N_PACKETS, seed=seed)
    return trace.headers


def schedule_for(workload: Workload, ruleset: RuleSet, seed: int) -> list:
    """The rule-churn schedule (empty except on ``churn_updates``)."""
    if workload.name != "churn_updates":
        return []
    return churn_schedule(
        ruleset, CHURN_RATE_PER_KPKT, N_PACKETS, seed=seed + 1
    )


def write_trace_file(path: str, headers: np.ndarray) -> None:
    """Write ``headers`` in ClassBench trace format (tab-separated
    fields, trailing expected-match column -1), atomically."""
    row = "\t".join(["%d"] * headers.shape[1]) + "\t-1\n"
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        for start in range(0, headers.shape[0], 65536):
            block = headers[start:start + 65536]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    os.replace(tmp, path)


def _first_match(ruleset: RuleSet, headers: np.ndarray) -> np.ndarray:
    """``RuleArrays.batch_match`` over the distinct header rows only."""
    rows = np.ascontiguousarray(headers, dtype=np.uint32)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(
        keys.ravel(), return_index=True, return_inverse=True
    )
    return ruleset.arrays.batch_match(rows[first])[inverse.ravel()]


def _stream_chunk_starts(n: int) -> list[int]:
    """Global chunk starts of a stream served in ``DEFAULT_SEGMENT_PACKETS``
    segments cut into ``DEFAULT_CHUNK_SIZE`` chunks, with the pipeline's
    tail merge: updates take effect only at these packet offsets."""
    starts: list[int] = []
    for seg in range(0, n, DEFAULT_SEGMENT_PACKETS):
        end = min(seg + DEFAULT_SEGMENT_PACKETS, n)
        local = list(range(seg, end, DEFAULT_CHUNK_SIZE))
        tail = end - local[-1]
        if len(local) > 1 and tail * TAIL_MERGE_DIVISOR < DEFAULT_CHUNK_SIZE:
            local.pop()
        starts.extend(local)
    return starts


def oracle_verdicts(
    ruleset: RuleSet, headers: np.ndarray, schedule: list
) -> np.ndarray:
    """Expected first-match ids, from a linear search rebuilt per epoch.

    Without a schedule this is one linear search over the trace.  With
    one, a batch takes effect at the first chunk start at or after its
    packet offset; each epoch's live rules form a fresh ruleset whose
    compact ids map back to stable ids (base rules keep their index,
    inserts number on from ``len(ruleset)``).
    """
    if not schedule:
        return _first_match(ruleset, headers)
    n = headers.shape[0]
    starts = _stream_chunk_starts(n)
    bounds = list(zip(starts, starts[1:] + [n]))
    rules = list(ruleset.rules)
    live = [True] * len(rules)
    pending = sorted(schedule, key=lambda u: u.at_packet)
    out = np.full(n, -1, dtype=np.int64)
    idx = 0
    epoch_rs = ruleset
    stable = np.arange(len(rules), dtype=np.int64)
    for i, (s, e) in enumerate(bounds):
        changed = False
        while idx < len(pending) and bisect_left(starts, pending[idx].at_packet) <= i:
            for op in pending[idx].batch:
                if op.op == OP_INSERT:
                    rules.append(op.rule)
                    live.append(True)
                elif 0 <= op.rule_id < len(rules):
                    live[op.rule_id] = False
            idx += 1
            changed = True
        if changed:
            stable = np.flatnonzero(live).astype(np.int64)
            epoch_rs = RuleSet(
                [rules[j] for j in stable], ruleset.schema, "oracle-epoch"
            )
        if not len(stable):
            continue
        compact = _first_match(epoch_rs, headers[s:e])
        hit = compact >= 0
        out[s:e][hit] = stable[compact[hit]]
    return out
