"""Repository benchmark: trace file -> verdicts, one workload per call.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bare_uniform --seed 1 \\
        --seconds 10 --trace 0

This process generates the seeded inputs (trace file or in-memory
headers, linear-search oracle verdicts) under ``.perfbench_work/``, then
runs ``measure.py`` in a fresh interpreter to serve and measure them.
The last line of standard output is the result JSON; the exit code is
non-zero when any verdict differs from the oracle.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
#: The whole run, set-up included, ends within this many seconds.
RUN_DEADLINE_S = 170.0


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from inputs import (
        WORKLOADS, oracle_verdicts, ruleset_for, schedule_for, trace_for,
        write_trace_file,
    )

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    prefix = os.path.join(WORK, f"{spec.name}-seed{args.seed}")

    t0 = time.perf_counter()
    ruleset = ruleset_for(spec)
    headers = trace_for(spec, ruleset, args.seed)
    np.save(prefix + ".oracle.npy", oracle_verdicts(
        ruleset, headers, schedule_for(spec, ruleset, args.seed)
    ))
    input_path = prefix + (".txt" if spec.source == "file" else ".npy")
    if spec.source == "file":
        write_trace_file(input_path, headers)
    else:
        np.save(input_path, headers)
    del headers
    print(f"inputs: {spec.name} seed {args.seed}, {len(ruleset)} rules, "
          f"prepared in {time.perf_counter() - t0:.1f} s", flush=True)

    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", spec.name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inputs", prefix,
    ]
    budget = RUN_DEADLINE_S - (time.monotonic() - started)
    # Its own process group, so an overrun kills its pool workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"error: measurement exceeded {budget:.0f} s", file=sys.stderr)
        return 3
    finally:
        # The inputs are large; result records and span files stay.
        for suffix in (".txt", ".npy", ".oracle.npy"):
            if os.path.exists(prefix + suffix):
                os.remove(prefix + suffix)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
