"""The benchmark's CPU meter counts live persistent-pool workers."""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from meter import cpu_seconds  # noqa: E402

from repro.classbench import generate_ruleset, generate_trace  # noqa: E402
from repro.serve import Engine, EngineConfig  # noqa: E402


def _reaped_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _own_cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def test_persistent_pool_cpu_is_counted():
    rs = generate_ruleset("acl1", 300, seed=3)
    trace = generate_trace(rs, 200_000, seed=4)
    # "processes" forks the pool even on a 1-CPU host.
    config = EngineConfig(
        backend="hypercuts", shards=2, persistent=True,
        shard_mode="processes",
    )
    engine = Engine.open(config, rs)
    try:
        engine.classify(trace)  # forks the persistent pool
        assert engine.pool_engaged
        # active_children() also reaps exited children left by earlier
        # code in this process, so RUSAGE_CHILDREN is settled below.
        assert len(multiprocessing.active_children()) >= 2
        reaped0, own0, total0 = _reaped_cpu(), _own_cpu(), cpu_seconds()
        for _ in range(3):
            engine.classify(trace)
        reaped1, own1, total1 = _reaped_cpu(), _own_cpu(), cpu_seconds()
        # The workers are alive, so RUSAGE_CHILDREN has seen none of
        # their work; the meter has.
        assert reaped1 == reaped0
        worker_cpu = (total1 - total0) - (own1 - own0)
        assert worker_cpu > 0.1, worker_cpu
    finally:
        engine.close()
    # Reaping moves the workers' CPU into RUSAGE_CHILDREN: nothing is
    # lost (up to one clock tick per worker) and nothing counts twice.
    after = cpu_seconds()
    tick = 1.0 / os.sysconf("SC_CLK_TCK")
    assert not engine.pool_engaged
    assert after >= total1 - 2 * tick
    assert after - total1 < 0.5
