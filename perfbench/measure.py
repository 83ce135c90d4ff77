"""Serve one workload and measure it (``run.py`` starts this process).

Runs in a fresh interpreter so that its peak RSS is the serving path's,
not the input generator's.  ``--inputs`` names the files ``run.py``
prepared: the trace (a ClassBench text file, or ``.npy`` headers for
in-memory workloads) and the oracle verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.core.packet import PacketTrace  # noqa: E402
from repro.engine.flowcache import CachedClassifier  # noqa: E402
from repro.engine.protocol import batch_stats_of, warm_batch_state  # noqa: E402
from repro.serve import (  # noqa: E402
    Engine,
    EngineConfig,
    iter_trace_file,
    iter_trace_segments,
    latency_percentiles,
)
from repro.stages import STAGE_KINDS, StageGraph, default_graph  # noqa: E402

from inputs import WORKLOADS, ruleset_for, schedule_for  # noqa: E402
from meter import cpu_seconds, host_fingerprint, peak_rss_mb  # noqa: E402
from tracing import ForkCounter, Tracer  # noqa: E402

#: Before every served pass, engines are built and closed again until
#: this many seconds are spent (at least one build).  Spreading the
#: builds across the whole run keeps a few seconds of host slowdown from
#: deciding setup_s.
SETUP_SLICE_S = 0.3
#: setup_s is the median of the means of this many interleaved subsets
#: of the run's builds.  Build times on a shared host fall into a fast
#: and a slow mode (about 1.6x apart) that last seconds each: a plain
#: median jumps between the modes from run to run, a mean moves in
#: proportion to the time spent in each.
SETUP_GROUPS = 3
#: At least this many timed passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3


# ---------------------------------------------------------------------------
# Workloads: open (set-up) and serve (one timed pass) each
# ---------------------------------------------------------------------------
class _Workload:
    #: Open a fresh engine for every pass (rule updates mutate it).
    fresh_per_pass = False

    def __init__(self, ruleset, trace_path: str, schedule: list) -> None:
        self.ruleset = ruleset
        self.trace_path = trace_path
        self.schedule = schedule

    def open(self, tracer: Tracer | None):
        """Ruleset in memory -> engine or graph ready to serve."""
        span = tracer.span if tracer is not None else _no_span
        config = self.config()
        with span("build.open"):
            with span("build.classifier"):
                clf = Engine.build_classifier(config, self.ruleset)
            served = self._construct(config, clf)
        warm_batch_state(served.classifier, self.ruleset.schema.ndim)
        return served

    def _construct(self, config, clf):
        return Engine(config, self.ruleset, classifier=clf)


class BareUniform(_Workload):
    def config(self) -> EngineConfig:
        return EngineConfig(backend="hypercuts", shards=2)

    def serve(self, engine, probe=None):
        source = iter_trace_file(self.trace_path, self.ruleset.schema)
        if probe is not None:
            source = probe.ingest(source)
        return engine.classify_stream(source)


class LinecardZipf(_Workload):
    spec = default_graph({"backend": "hypercuts", "shards": 2},
                         cache_entries=4096)

    def config(self) -> EngineConfig:
        return self.spec.engine_config()

    def _construct(self, config, clf):
        return StageGraph(self.spec, self.ruleset, classifier=clf)

    def serve(self, graph, probe=None):
        # Traced, the graph's own reader is wrapped by Probe.instrument.
        return graph.run(self.trace_path)


class ChurnUpdates(_Workload):
    fresh_per_pass = True

    def __init__(self, ruleset, trace_path, schedule) -> None:
        super().__init__(ruleset, trace_path, schedule)
        self.trace = PacketTrace(np.load(trace_path), ruleset.schema)

    def config(self) -> EngineConfig:
        return EngineConfig(backend="hypercuts", updatable=True)

    def serve(self, engine, probe=None):
        if probe is not None and probe.keep is not None:
            probe.keep.extend(iter_trace_segments(self.trace))
        return engine.classify_stream(self.trace, updates=self.schedule)


RUNNERS = {
    "bare_uniform": BareUniform,
    "linecard_zipf": LinecardZipf,
    "churn_updates": ChurnUpdates,
}


# ---------------------------------------------------------------------------
# Verdict check
# ---------------------------------------------------------------------------
class Checker:
    """Counts packets whose verdict differs from the oracle, plus
    packets quarantined or missing from the verdict array."""

    def __init__(self, oracle: np.ndarray) -> None:
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0

    def check(self, report) -> None:
        n = self.oracle.shape[0]
        match = report.match
        self.attempted += n
        served = min(n, match.shape[0])
        self.failed += int((match[:served] != self.oracle[:served]).sum())
        self.failed += n - served
        if report.fault is not None:
            self.failed += report.fault.quarantined


def energy_nj_per_pkt(report) -> float | None:
    if report.stages is not None:
        total = sum(s.energy_j for s in report.stages)
        return total / report.n_packets * 1e9
    if report.energy_per_packet_j is None:
        return None
    return report.energy_per_packet_j * 1e9


def _median(values):
    return statistics.median(values) if values else 0.0


def _median_of_means(values, groups):
    return statistics.median(
        statistics.mean(values[i::groups]) for i in range(groups)
    )


def _no_span(name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------
def _pass_loop(seconds: float, min_passes: int, body) -> None:
    """Call ``body()`` until ``seconds`` are spent (at least
    ``min_passes`` times); a pass starts only if one more fits."""
    started = time.perf_counter()
    done = 0
    last = 0.0
    while done < min_passes or (
        time.perf_counter() - started + last <= seconds
    ):
        t0 = time.perf_counter()
        body(done)
        last = time.perf_counter() - t0
        done += 1


def _setup_slice(wl: _Workload, tracer: Tracer | None,
                 setups: list[float]) -> None:
    """Build and close engines for ``SETUP_SLICE_S`` (at least once),
    each from a freshly collected heap, appending each build's time."""
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        served = wl.open(tracer)
        setups.append(time.perf_counter() - t0)
        served.close()
        if time.perf_counter() - started >= SETUP_SLICE_S:
            return


def run_untraced(wl: _Workload, checker: Checker, seconds: float) -> dict:
    # The first build in a process is cold, so it is not a set-up sample.
    served = wl.open(None)
    # Warm pass, untimed: a line card serves continuously.
    checker.check(wl.serve(served))
    if wl.fresh_per_pass:
        served.close()

    setups: list[float] = []
    pps: list[float] = []
    cpu_us: list[float] = []
    # Only what the metrics need: a report holds per-packet arrays,
    # and keeping them would grow the peak RSS with the pass count.
    latencies: list[dict] = []
    last: dict = {}

    def one_pass(_):
        nonlocal served
        _setup_slice(wl, None, setups)
        if wl.fresh_per_pass:
            served = wl.open(None)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        report = wl.serve(served)
        wall = time.perf_counter() - t0
        if wl.fresh_per_pass:
            served.close()
        cpu = cpu_seconds() - cpu0
        checker.check(report)
        n = report.n_packets
        pps.append(n / wall)
        cpu_us.append(cpu / n * 1e6)
        latencies.append(latency_percentiles(report.update_latencies_s))
        last["energy"] = energy_nj_per_pkt(report)
        last["batches"] = len(report.update_latencies_s)

    _pass_loop(seconds, MIN_PASSES, one_pass)
    if not wl.fresh_per_pass:
        served.close()

    return {
        "metrics": {
            "pps": (_median(pps), "1/s"),
            "cpu_us_per_pkt": (_median(cpu_us), "us"),
            "setup_s": (_median_of_means(setups, SETUP_GROUPS), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "info": {
            "energy_nj_per_pkt": (last["energy"], "nJ"),
            "update_p50_ms": (_median(
                [p["p50_ms"] for p in latencies]
            ) if latencies[0] else None, "ms"),
            "update_p95_ms": (_median(
                [p["p95_ms"] for p in latencies]
            ) if latencies[0] else None, "ms"),
        },
        "samples": {
            "passes": len(pps), "setups": len(setups),
            "update_batches_per_pass": last["batches"],
        },
        "raw": {"pps": pps, "cpu_us_per_pkt": cpu_us, "setup_s": setups},
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------
class Probe:
    """Span wrappers installed on one served engine or graph's instances
    (no program code changes): trace reader, session iterator, pipeline
    run, update apply.  Inactive, each costs one attribute check."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: ``ChunkResult.elapsed_s`` of the session chunks of this pass.
        self.serve_s: list[float] = []
        #: When a list, every parsed segment of this pass is kept in it.
        self.keep: list | None = None

    def _kept(self, segment) -> None:
        if self.keep is not None:
            self.keep.append(segment)

    def ingest(self, source):
        return self.tracer.iterate("ingest.next", source, on_item=self._kept)

    def instrument(self, served) -> None:
        tracer = self.tracer
        graph = served if isinstance(served, StageGraph) else None
        engine = graph.engine if graph is not None else served
        pipeline = engine.pipeline
        pipeline.run = tracer.wrap("pipeline.run", pipeline.run)
        if graph is not None:
            # The graph builds its own trace reader from the path.
            segments = graph._segments
            graph._segments = lambda *a, **kw: self.ingest(segments(*a, **kw))
        else:
            stream = engine.stream

            def traced_stream(*args, **kwargs):
                return tracer.iterate(
                    "session.next", stream(*args, **kwargs),
                    on_item=lambda chunk: self.serve_s.append(chunk.elapsed_s),
                )

            engine.stream = traced_stream
        clf = engine.classifier
        if callable(getattr(clf, "apply_updates", None)):
            clf.apply_updates = tracer.wrap(
                "updates.apply", clf.apply_updates,
                args_of=lambda batch: {"ops": len(batch)},
            )


def _sum(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def run_traced(wl: _Workload, checker: Checker, seconds: float,
               trace_path: str, labels: dict) -> dict:
    tracer = Tracer()
    forks = ForkCounter()
    probe = Probe(tracer)
    setups: list[float] = []

    def open_instrumented():
        served = wl.open(tracer)
        probe.instrument(served)
        return served

    served = open_instrumented()
    checker.check(wl.serve(served, probe))  # warm pass
    if wl.fresh_per_pass:
        served.close()

    untraced_wall: list[float] = []
    per_pass: list[dict] = []
    segments: list = []
    last_report = None
    last_classifier = None

    def one_pass(i):
        nonlocal served, last_report, last_classifier
        traced = i % 2 == 1
        _setup_slice(wl, tracer, setups)
        if wl.fresh_per_pass:
            served = open_instrumented()
        probe.keep = segments if traced and not segments else None
        probe.serve_s.clear()
        forks0 = forks.count
        t0 = time.perf_counter()
        if traced:
            with tracer.root_span("pass", index=i) as root:
                report = wl.serve(served, probe)
        else:
            report = wl.serve(served, probe)
        wall = time.perf_counter() - t0
        probe.keep = None
        last_classifier = served.classifier
        if wl.fresh_per_pass:
            served.close()
        checker.check(report)
        if not traced:
            untraced_wall.append(wall)
            return
        spans = tracer.within(root)
        applies = [s for s in spans if s.name == "updates.apply"]
        per_pass.append({
            "wall": wall,
            "ingest": _sum(spans, "ingest.next"),
            "serve": sum(probe.serve_s),
            "wait": _sum(spans, "session.next"),
            "run": _sum(spans, "pipeline.run"),
            "forks": forks.count - forks0,
            "apply": sum(s.duration for s in applies),
            "batches": len(applies),
            "ops": sum(s.args["ops"] for s in applies),
        })
        last_report = report

    _pass_loop(seconds, 2 * MIN_PASSES - 2, one_pass)
    if not wl.fresh_per_pass:
        served.close()

    # Kernel and flow cache, inline on the same parsed segments.
    report = last_report
    n = report.n_packets
    clf = last_classifier
    inner = clf.classifier if isinstance(clf, CachedClassifier) else clf
    tracer.active = True
    with tracer.span("kernel.replay"):
        for seg in segments:
            with tracer.span("kernel.batch_stats", packets=seg.n_packets):
                batch_stats_of(inner, seg.headers)
    kernel_busy = _sum(tracer.spans, "kernel.batch_stats")
    cache = {"hit_rate": 0.0, "evictions": 0, "busy": 0.0, "gain": 0.0}
    if isinstance(clf, CachedClassifier):
        fresh = CachedClassifier(
            inner, entries=clf.cache.entries, ways=clf.cache.ways,
            max_age=clf.cache.max_age,
        )
        hits = misses = evictions = 0
        with tracer.span("flowcache.replay"):
            for seg in segments:
                with tracer.span("flowcache.batch_stats",
                                 packets=seg.n_packets):
                    st = fresh.batch_stats(seg.headers)
                hits += st.cache_hits
                misses += st.cache_misses
                evictions += st.cache_evictions
        busy = _sum(tracer.spans, "flowcache.batch_stats")
        cache = {
            "hit_rate": hits / (hits + misses),
            "evictions": evictions,
            "busy": busy,
            "gain": kernel_busy / busy,
        }
    tracer.active = False

    def med(key):
        return _median([p[key] for p in per_pass])

    wall = med("wall")
    run_s = med("run")
    lat = latency_percentiles(report.update_latencies_s) or {}
    stages = {s.kind: s for s in (report.stages or [])}
    occupancy = report.mean_occupancy()
    energy = energy_nj_per_pkt(report)
    absent = {}
    if med("ingest") == 0:
        absent["ingest.*"] = "in-memory segments: no trace file is parsed"
    if not probe.serve_s and report.stages is not None:
        absent["session.*"] = "the stage graph calls the pipeline per segment"
    if not isinstance(clf, CachedClassifier):
        absent["flowcache.*"] = "no flow cache configured"
    if report.stages is None:
        absent["stages.*"] = "no stage graph"
    if not per_pass[-1]["batches"]:
        absent["updates.*"] = "no rule updates"
    if occupancy is None:
        absent["hw.occupancy_cycles"] = "backend reports no occupancy"
    if energy is None:
        absent["hw.energy_nj_per_pkt"] = "backend reports no occupancy"

    metrics = {
        "ingest.busy_s": (med("ingest"), "s"),
        "ingest.pps": (n / med("ingest") if med("ingest") else 0.0, "1/s"),
        "session.serve_s": (med("serve"), "s"),
        "session.wait_s": (med("wait"), "s"),
        "session.overlap": (
            (med("ingest") + med("serve")) / wall if med("serve") else 0.0,
            "ratio",
        ),
        "pipeline.run_s": (run_s, "s"),
        "pipeline.forks": (per_pass[-1]["forks"], "count"),
        "pipeline.parallel_gain": (kernel_busy / run_s, "ratio"),
        "kernel.busy_s": (kernel_busy, "s"),
        "kernel.pps": (n / kernel_busy, "1/s"),
        "flowcache.hit_rate": (cache["hit_rate"], "ratio"),
        "flowcache.evictions": (cache["evictions"], "count"),
        "flowcache.busy_s": (cache["busy"], "s"),
        "flowcache.gain": (cache["gain"], "ratio"),
    }
    for kind in STAGE_KINDS:
        st = stages.get(kind)
        metrics[f"stages.{kind}.busy_s"] = (st.busy_s if st else 0.0, "s")
        metrics[f"stages.{kind}.dropped"] = (st.dropped if st else 0, "count")
    metrics.update({
        "updates.apply_s": (med("apply"), "s"),
        "updates.batches": (per_pass[-1]["batches"], "count"),
        "updates.ops": (per_pass[-1]["ops"], "count"),
        "updates.final_epoch": (report.final_epoch or 0, "count"),
        "updates.p50_ms": (lat.get("p50_ms", 0.0), "ms"),
        "updates.p95_ms": (lat.get("p95_ms", 0.0), "ms"),
        "hw.occupancy_cycles": (occupancy or 0.0, "cycles"),
        "hw.accesses_per_lookup": (clf.memory_accesses_per_lookup(), "count"),
        "hw.memory_bytes": (clf.memory_bytes(), "B"),
        "hw.energy_nj_per_pkt": (energy or 0.0, "nJ"),
        "build.classifier_s": (_median(
            [s.duration for s in tracer.spans if s.name == "build.classifier"]
        ), "s"),
        "build.open_s": (_median(
            [s.duration for s in tracer.spans if s.name == "build.open"]
        ), "s"),
        "trace.overhead": (wall / _median(untraced_wall), "ratio"),
    })
    tracer.export_chrome(trace_path, {
        **labels, "tracing_overhead": metrics["trace.overhead"][0],
    })
    return {
        "metrics": metrics,
        "info": {},
        "absent": absent,
        "samples": {"traced_passes": len(per_pass),
                    "untraced_passes": len(untraced_wall),
                    "setups": len(setups)},
    }


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", required=True,
                    help="path prefix of the files run.py prepared")
    args = ap.parse_args(argv)

    spec = WORKLOADS[args.workload]
    ruleset = ruleset_for(spec)
    trace_file = args.inputs + (".txt" if spec.source == "file" else ".npy")
    wl = RUNNERS[args.workload](
        ruleset, trace_file, schedule_for(spec, ruleset, args.seed)
    )
    checker = Checker(np.load(args.inputs + ".oracle.npy"))
    fingerprint = host_fingerprint(ROOT)
    if args.trace:
        out = run_traced(
            wl, checker, args.seconds, args.inputs + ".trace.json",
            {"host": fingerprint, "workload": args.workload,
             "seed": args.seed},
        )
    else:
        out = run_untraced(wl, checker, args.seconds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in declared}
    emitted = {name: unit for name, (_, unit) in out["metrics"].items()}
    if emitted != declared:
        print(f"error: metrics {sorted(emitted.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 2

    print("host: " + json.dumps(fingerprint, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in out["samples"].items()))
    shown = {**out["metrics"], **out["info"]}
    shown["failed_fraction"] = (checker.failed / checker.attempted, "ratio")
    for name, (value, unit) in shown.items():
        if value is None:
            print(f"  {name}: absent on {args.workload}")
        else:
            print(f"  {name} = {value:.6g} {unit}")
    for name, why in out.get("absent", {}).items():
        print(f"  {name}: absent ({why}); reported as 0")
    if args.trace:
        print(f"  spans: {args.inputs}.trace.json")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }
    with open(args.inputs + f".result{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"host": fingerprint, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "absent": out.get("absent", {}),
                   "info": out["info"], "raw": out.get("raw", {}),
                   **result}, fh, indent=1, default=str)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
