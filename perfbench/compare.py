"""Compare two sets of benchmark results, labelled by host.

Usage::

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the ``*.result0.json`` records ``measure.py``
writes for one commit (empty ``.perfbench_work/`` before each set, then
copy it aside).  For every workload and end-to-end metric of the base
set the script prints both medians and the change as a share of the
base median, against the bound in ``BENCHMARK.json``.  A metric is

* ``ok`` or ``regressed`` (worse by more than its bound);
* ``unresolved`` when either set has fewer than two values or an
  IQR/median wider than the bound, so noise could hide a regression;
* ``missing`` when the head set lacks it.

Exit codes: 1 a record failed its verdict check; otherwise 2 the sets
cannot be gated: usage error, a directory with no records or records of
more than one commit, or records from different hosts (any fingerprint
field other than the git SHA differs; each row is then labelled
``cross-host``); otherwise 1 a metric regressed or is missing, 3 a
metric is unresolved, 0 every metric is ok.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """``values`` ({workload: {metric: [values]}}), ``hosts``, ``shas``
    and the ``incorrect`` record paths of one directory."""
    out = {"values": {}, "hosts": [], "shas": set(), "incorrect": []}
    for path in sorted(glob.glob(os.path.join(directory, "*.result0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        host = dict(rec["host"])
        out["shas"].add(host.pop("git_sha"))
        out["hosts"].append(host)
        if not rec["correct"]:
            out["incorrect"].append(path)
        per = out["values"].setdefault(rec["workload"], {})
        for name, metric in rec["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def spread(values: list) -> float | None:
    """IQR / median, or ``None`` with fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sets = {"base": load(argv[0]), "head": load(argv[1])}
    for label, data in sets.items():
        if not data["values"]:
            print(f"error: no *.result0.json records in the {label} set",
                  file=sys.stderr)
            return 2
        if len(data["shas"]) > 1:
            print(f"error: the {label} set mixes commits "
                  f"{sorted(data['shas'])}", file=sys.stderr)
            return 2
    base, head = sets["base"]["values"], sets["head"]["values"]
    distinct = {
        json.dumps(h, sort_keys=True)
        for data in sets.values() for h in data["hosts"]
    }
    cross = len(distinct) > 1
    if cross:
        print("cross-host comparison: results are labelled, not gated")
        for host in sorted(distinct):
            print(f"  host {host}")
    incorrect = False
    for label, data in sets.items():
        for path in data["incorrect"]:
            print(f"{label} record failed its verdict check: {path}")
            incorrect = True
    failed = unresolved = False
    for workload in sorted(base):
        for name, spec in bounds.items():
            if name not in base[workload]:
                continue
            b_vals = base[workload][name]
            h_vals = head.get(workload, {}).get(name)
            if not h_vals:
                print(f"{workload:14s} {name:15s} missing from head")
                failed = True
                continue
            b = statistics.median(b_vals)
            h = statistics.median(h_vals)
            worse = (b - h) / b if spec["better"] == "higher" else (h - b) / b
            spreads = [spread(b_vals), spread(h_vals)]
            if cross:
                verdict = "cross-host"
            elif any(s is None or s > spec["bound"] for s in spreads):
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            failed |= verdict == "regressed"
            unresolved |= verdict == "unresolved"
            shown = "/".join("n/a" if s is None else f"{s:.3f}"
                             for s in spreads)
            print(f"{workload:14s} {name:15s} base {b:12.6g} head {h:12.6g} "
                  f"worse by {worse:+.3f} (bound {spec['bound']}) "
                  f"spread {shown} n={len(b_vals)}/{len(h_vals)} {verdict}")
    if incorrect:
        return 1
    if cross:
        return 2
    if failed:
        return 1
    return 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
