"""Process-tree CPU and memory accounting, and the host fingerprint.

``getrusage(RUSAGE_CHILDREN)`` only counts children that have exited
and been reaped, so a persistent worker pool that is still alive would
read as free.  :func:`cpu_seconds` adds the CPU of every live
multiprocessing child from ``/proc/<pid>/stat``; the sum is monotonic
across a child's life (its CPU moves from "live" to "reaped" when it is
joined), so differences between two readings are exact up to the
clock-tick resolution of ``/proc``.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import sys

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _live_child_cpu(pid: int) -> float:
    """utime + stime of a live (or zombie) child, 0.0 once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            stat = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    # Fields after the parenthesised command name: state is index 0,
    # utime (field 14) index 11, stime (field 15) index 12.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def cpu_seconds() -> float:
    """CPU seconds of this process, its reaped children and its live
    multiprocessing children."""
    # active_children() joins exited workers first, so their CPU lands
    # in RUSAGE_CHILDREN before that is read.
    live = [p.pid for p in multiprocessing.active_children()]
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    return total + sum(_live_child_cpu(pid) for pid in live)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's peak.

    Call after every worker pool has been closed, so the workers count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _git_sha(root: str) -> str:
    """HEAD of the checkout from ``.git`` files, or ``"unknown"``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: str) -> dict:
    """What a result must be labelled with before it is compared."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }
