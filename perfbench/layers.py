"""Traced mode: spans at each layer's entry points, and the per-layer ledger.

:func:`install` wraps the public entry points of every layer from the
outside (nothing in ``src/`` changes).  A span records its name, start,
end, parent span and a small tag (batch size, bytes, backend).  Spans
stay in memory; the round a span belongs to is assigned afterwards from
the runner's phase marks.  Shard processes inherit the wrappers through
``fork`` and write their own spans when the shard stops.

A layer's self time is its span duration minus the time its child spans
cover; :func:`self_times` reports it per span name.  Per-layer counts
come from the program's own counters (``MaintainerStats``, the stage
series of the metrics registry, snapshot file sizes), read by the
runner at the start and end of the measured rounds.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np

#: Adapter class -> registry backend name, for the per-backend ratios.
BACKENDS = {
    "FixedWindowMaintainer": "fixed_window",
    "AgglomerativeMaintainer": "agglomerative",
    "WaveletWindowMaintainer": "wavelet",
    "DynamicWaveletMaintainer": "dynamic_wavelet",
    "GKQuantileMaintainer": "gk_quantiles",
    "EquiDepthMaintainer": "equi_depth",
    "ReservoirMaintainer": "reservoir",
    "ExactBufferMaintainer": "exact",
    "EHCountMaintainer": "eh_count",
    "CRPrecisMaintainer": "cr_precis",
}

#: Spans that are a backend's raw synopsis work (below the Maintainer).
RAW_SPANS = frozenset({
    "core.fixed_window.extend", "core.fixed_window.update",
    "core.agglomerative.extend", "streams.window.extend",
    "wavelets.from_values", "wavelets.dynamic.extend", "sketches.gk.extend",
    "sketches.reservoir.extend", "warehouse.equi_depth.extend",
    "counting.eh.extend", "counting.cr_precis.apply",
})


class SpanLog:
    """In-memory span recorder shared by every wrapped entry point."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.process = "main"
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_function(self, function, name: str, tag=None, pre=None):
        ids, stack_of = self._ids, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            before = pre(*args, **kwargs) if pre is not None else None
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
            label = tag(args, kwargs, result, before) if tag is not None else None
            self.spans.append((span_id, name, started, ended, parent, label))
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, tag=None, pre=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap_function(raw.__func__, name, tag, pre))
        else:
            wrapped = self.wrap_function(raw, name, tag, pre)
        setattr(owner, attr, wrapped)

    def restart_in_child(self, label: str) -> None:
        """A forked shard keeps the wrappers but records its own spans."""
        self.process = label
        self.spans = []
        self._local = threading.local()

    def dump(self, path: Path, marks=None) -> None:
        payload = {"process": self.process, "spans": [list(s) for s in self.spans]}
        if marks is not None:
            payload["marks"] = [list(m) for m in marks]
        Path(path).write_text(json.dumps(payload, default=str))


def _size(args, kwargs, result, before, index=1):
    values = args[index] if len(args) > index else next(iter(kwargs.values()))
    return len(values)


_size_ingest = functools.partial(_size, index=2)


def _file_size(args, kwargs, result, before):
    return os.path.getsize(result)


def install(directory: Path) -> SpanLog:
    """Wrap every layer's entry points; returns the shared span log."""
    import repro.service.service as service_module
    import repro.shard.host as host_module
    import repro.shard.router as router_module
    from repro.core.agglomerative import AgglomerativeHistogramBuilder
    from repro.core.fixed_window import FixedWindowHistogramBuilder
    from repro.core.prefix import SlidingPrefixSums
    from repro.counting.cr_precis import CRPrecis
    from repro.counting.eh import ExponentialHistogram
    from repro.obs.accuracy import AccuracyMonitor
    from repro.runtime.maintainer import Maintainer
    from repro.runtime.pipeline import StreamPipeline
    from repro.service.qos import QoSController
    from repro.service.snapshot import SnapshotStore
    from repro.service.stream_worker import StreamWorker
    from repro.shard.router import ShardRouter
    from repro.sketches.gk import GKQuantileSummary
    from repro.sketches.reservoir import ReservoirSample
    from repro.streams.window import SlidingWindow
    from repro.warehouse.streaming import StreamingEquiDepthSummary
    from repro.wavelets.dynamic import DynamicWaveletHistogram
    from repro.wavelets.synopsis import WaveletSynopsis

    log = SpanLog(directory)
    w = log.wrap
    # core
    w(FixedWindowHistogramBuilder, "update", "core.fixed_window.update",
      pre=lambda self: self.rebuild_count,
      tag=lambda a, k, r, before: a[0].rebuild_count - before)
    w(FixedWindowHistogramBuilder, "extend", "core.fixed_window.extend", tag=_size)
    w(SlidingPrefixSums, "extend", "core.prefix.extend", tag=_size)
    w(AgglomerativeHistogramBuilder, "extend", "core.agglomerative.extend",
      tag=lambda a, k, r, b: (_size(a, k, r, b), id(a[0]), sum(a[0].queue_sizes())))
    # wavelets
    w(WaveletSynopsis, "from_values", "wavelets.from_values")
    w(DynamicWaveletHistogram, "extend", "wavelets.dynamic.extend", tag=_size)
    w(SlidingWindow, "extend", "streams.window.extend", tag=_size)
    # sketches and the equi-depth summary built on GK
    w(GKQuantileSummary, "extend", "sketches.gk.extend",
      tag=lambda a, k, r, b: (_size(a, k, r, b), id(a[0]), a[0].summary_size))
    w(ReservoirSample, "extend", "sketches.reservoir.extend", tag=_size)
    w(StreamingEquiDepthSummary, "extend", "warehouse.equi_depth.extend", tag=_size)
    # counting
    w(ExponentialHistogram, "extend", "counting.eh.extend",
      tag=lambda a, k, r, b: (_size(a, k, r, b), id(a[0]), a[0].bucket_cells()))
    w(CRPrecis, "apply", "counting.cr_precis.apply", tag=_size)
    # runtime
    backend = lambda a, k, r, b: type(a[0]).__name__  # noqa: E731
    w(Maintainer, "extend", "runtime.maintainer.extend", tag=backend)
    w(Maintainer, "maintain", "runtime.maintainer.maintain", tag=backend)
    w(Maintainer, "state_arrays", "runtime.statecodec.state_arrays")
    w(Maintainer, "load_state_arrays", "runtime.statecodec.load_state_arrays")
    w(StreamPipeline, "extend", "runtime.pipeline.extend", tag=_size)
    # service
    w(service_module.StreamService, "ingest", "service.ingest", tag=_size_ingest)
    w(StreamWorker, "_materialize", "service.materialize")
    w(service_module, "view_range_sum", "service.view_query")
    w(service_module, "view_quantile", "service.view_query")
    w(QoSController, "admit", "service.qos.admit")
    w(SnapshotStore, "write", "snapshot.write_full", tag=_file_size)
    w(SnapshotStore, "write_delta", "snapshot.write_delta", tag=_file_size)
    w(SnapshotStore, "load_latest", "snapshot.load_latest",
      tag=lambda a, k, r, b: sum(len(batch) for batch in r.get("tail", ())))
    # shard tier
    w(router_module, "send_frame", "shard.framing.send",
      tag=lambda a, k, r, b: (a[1], len(a[3].encode()), len(a[4])))
    w(host_module, "decode_batch", "shard.framing.decode",
      tag=lambda a, k, r, b: len(a[0]) // 8)
    w(ShardRouter, "ingest", "shard.router.ingest", tag=_size_ingest)
    w(ShardRouter, "_request_raw", "shard.router.rpc",
      tag=lambda a, k, r, b: a[2])
    w(ShardRouter, "checkpoint", "shard.router.checkpoint",
      pre=lambda self, *rest: sum(len(h.replay) for h in self._shards.values()),
      tag=lambda a, k, r, before: before)
    # obs
    w(AccuracyMonitor, "check", "obs.accuracy.check")

    shard_main = router_module.shard_main

    def traced_shard_main(shard_id, *args, **kwargs):
        # Runs in the forked child: from here on its spans are its own,
        # including the restore the shard performs while starting up.
        log.restart_in_child(f"shard{shard_id}-{os.getpid()}")
        try:
            return shard_main(shard_id, *args, **kwargs)
        finally:
            log.dump(log.directory / f"{log.process}.json")

    router_module.shard_main = traced_shard_main
    return log


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------


def _phases(marks):
    ordered = sorted(marks, key=lambda mark: mark[1])
    return ordered, [mark[1] for mark in ordered]


def load_spans(log: SpanLog, marks) -> list[dict]:
    """Every span of the run (main and shard processes) with its phase."""
    raw = [("main",) + tuple(span) for span in log.spans]
    for path in sorted(log.directory.glob("shard*.json")):
        payload = json.loads(path.read_text())
        raw += [(payload["process"],) + tuple(span) for span in payload["spans"]]
    ordered, starts = _phases(marks)
    spans = []
    for proc, span_id, name, start, end, parent, tag in raw:
        at = bisect_right(starts, start) - 1
        phase, index = None, -1
        if at >= 0 and start <= ordered[at][2]:
            phase, index = ordered[at][0], at
        spans.append({
            "proc": proc, "id": span_id, "name": name, "start": start,
            "dur": end - start, "parent": parent, "tag": tag,
            "phase": phase, "mark": index,
        })
    return spans


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, minus the time its child spans cover."""
    child = {}
    for span in spans:
        key = (span["proc"], span["parent"])
        child[key] = child.get(key, 0.0) + span["dur"]
    totals: dict[str, float] = {}
    for span in spans:
        own = span["dur"] - child.get((span["proc"], span["id"]), 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return dict(sorted(totals.items()))


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _per_unit(spans, scale: float) -> float:
    units = sum(span["tag"] if isinstance(span["tag"], int) else span["tag"][0]
                for span in spans)
    return scale * sum(span["dur"] for span in spans) / units if units else 0.0


def _last_per_object(spans) -> int:
    last = {}
    for span in sorted(spans, key=lambda s: s["start"]):
        last[(span["proc"], span["tag"][1])] = span["tag"][2]
    return int(sum(last.values()))


def _grouped_sums(spans) -> list[float]:
    groups: dict[int, float] = {}
    for span in spans:
        groups[span["mark"]] = groups.get(span["mark"], 0.0) + span["dur"]
    return list(groups.values())


def ledger(log: SpanLog, workload, marks) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` plus self times."""
    from repro.shard.framing import HEADER, KIND_DATA

    spans = load_spans(log, marks)
    rounds = [s for s in spans if s["phase"] and s["phase"].startswith("round:")]
    restores = [s for s in spans if s["phase"] == "restore"]
    by_name: dict[str, list] = {}
    for span in rounds:
        by_name.setdefault(span["name"], []).append(span)
    named = lambda name: by_name.get(name, [])  # noqa: E731
    durations = lambda name: [s["dur"] for s in named(name)]  # noqa: E731

    before, after = workload.counts["before"], workload.counts["after"]
    fixed = next((s.name for s in workload.streams if s.backend == "fixed_window"), None)
    delta = (
        {key: after[fixed][key] - before[fixed][key] for key in after[fixed]}
        if fixed else {}
    )
    rebuilds = delta.get("rebuilds", 0)
    stages = {
        key: after["stages"].get(key, 0) - before["stages"].get(key, 0)
        for key in after["stages"]
    }
    shard_stages = {
        key: after["shard_stages"].get(key, 0) - before["shard_stages"].get(key, 0)
        for key in after["shard_stages"]
    }

    m: dict[str, tuple] = {}
    m["core.fixed_window.rebuild_ms"] = (
        1e3 * _p50([s["dur"] for s in named("core.fixed_window.update") if s["tag"]]), "ms")
    m["core.fixed_window.herror_evals_per_rebuild"] = (
        delta["herror_evaluations"] / rebuilds if rebuilds else 0.0, "count")
    m["core.fixed_window.search_probes_per_rebuild"] = (
        delta["search_probes"] / rebuilds if rebuilds else 0.0, "count")
    m["core.fixed_window.rebuilds_per_maintain"] = (
        rebuilds / delta["maintains"] if delta.get("maintains") else 0.0, "ratio")
    m["core.prefix.ns_per_pt"] = (_per_unit(named("core.prefix.extend"), 1e9), "ns")
    m["core.agglomerative.us_per_pt"] = (
        _per_unit(named("core.agglomerative.extend"), 1e6), "us")
    m["core.agglomerative.intervals"] = (
        _last_per_object(named("core.agglomerative.extend")), "count")
    m["wavelets.slide_ms"] = (1e3 * _p50(durations("wavelets.from_values")), "ms")
    m["wavelets.dynamic.ns_per_pt"] = (
        _per_unit(named("wavelets.dynamic.extend"), 1e9), "ns")
    m["sketches.gk.ns_per_pt"] = (_per_unit(named("sketches.gk.extend"), 1e9), "ns")
    m["sketches.gk.tuples"] = (_last_per_object(named("sketches.gk.extend")), "count")
    m["sketches.reservoir.ns_per_pt"] = (
        _per_unit(named("sketches.reservoir.extend"), 1e9), "ns")
    m["counting.eh.ns_per_pt"] = (_per_unit(named("counting.eh.extend"), 1e9), "ns")
    m["counting.eh.bucket_cells"] = (
        _last_per_object(named("counting.eh.extend")), "count")
    m["counting.cr_precis.ns_per_unit"] = (
        _per_unit(named("counting.cr_precis.apply"), 1e9), "ns")

    # Maintainer time over raw-synopsis time on the same batches.
    index = {(s["proc"], s["id"]): s for s in rounds}
    maintainer_time: dict[str, float] = {}
    raw_time: dict[str, float] = {}
    pipeline_children = 0.0
    for span in rounds:
        if span["name"].startswith("runtime.maintainer."):
            backend = BACKENDS.get(span["tag"], span["tag"])
            maintainer_time[backend] = maintainer_time.get(backend, 0.0) + span["dur"]
            parent = index.get((span["proc"], span["parent"]))
            if parent is not None and parent["name"] == "runtime.pipeline.extend":
                pipeline_children += span["dur"]
        elif span["name"] in RAW_SPANS:
            parent = index.get((span["proc"], span["parent"]))
            if parent is not None and parent["name"].startswith("runtime.maintainer."):
                backend = BACKENDS.get(parent["tag"], parent["tag"])
                raw_time[backend] = raw_time.get(backend, 0.0) + span["dur"]
    for backend in BACKENDS.values():
        raw = raw_time.get(backend, 0.0)
        m[f"runtime.{backend}.overhead_ratio"] = (
            maintainer_time.get(backend, 0.0) / raw if raw else 0.0, "ratio")
    pipeline = sum(durations("runtime.pipeline.extend"))
    m["runtime.pipeline.overhead_ratio"] = (
        pipeline / pipeline_children if pipeline_children else 0.0, "ratio")
    m["runtime.statecodec.state_arrays_ms"] = (
        1e3 * _p50(_grouped_sums(named("runtime.statecodec.state_arrays"))), "ms")
    m["runtime.statecodec.load_ms"] = (1e3 * _p50(_grouped_sums(
        [s for s in restores if s["name"] == "runtime.statecodec.load_state_arrays"])), "ms")

    m["service.ingest_call_us"] = (1e6 * _p50(durations("service.ingest")), "us")
    m["service.drain_cycles_per_round"] = (
        stages.get("materialize_count", 0) / workload.rounds, "count")
    m["service.materialize_ms"] = (1e3 * _p50(durations("service.materialize")), "ms")
    m["service.view_query_us"] = (1e6 * _p50(durations("service.view_query")), "us")
    m["service.qos.admit_us"] = (1e6 * _p50(durations("service.qos.admit")), "us")

    m["service.checkpoint_p50_ms"] = (
        float(np.median(workload.samples["checkpoint_ms"])), "ms")
    m["snapshot.write_full_ms"] = (1e3 * _p50(durations("snapshot.write_full")), "ms")
    m["snapshot.write_delta_ms"] = (1e3 * _p50(durations("snapshot.write_delta")), "ms")
    full = [s["tag"] for s in named("snapshot.write_full")]
    deltas = [s["tag"] for s in named("snapshot.write_delta")]
    m["snapshot.full_bytes"] = (float(np.mean(full)) if full else 0.0, "B")
    m["snapshot.delta_bytes"] = (float(np.mean(deltas)) if deltas else 0.0, "B")
    loads = [s for s in restores if s["name"] == "snapshot.load_latest"]
    m["snapshot.load_ms"] = (1e3 * _p50([s["dur"] for s in loads]), "ms")
    replayed: dict[int, int] = {}
    for span in loads:
        replayed[span["mark"]] = replayed.get(span["mark"], 0) + span["tag"]
    m["snapshot.replayed_points"] = (_p50(list(replayed.values())), "count")

    frames = [s for s in named("shard.framing.send") if s["tag"][0] == KIND_DATA]
    m["shard.framing.encode_us"] = (1e6 * _p50([s["dur"] for s in frames]), "us")
    m["shard.framing.decode_us"] = (1e6 * _p50(durations("shard.framing.decode")), "us")
    points = sum(s["tag"][2] // 8 for s in frames)
    frame_bytes = sum(HEADER.size + s["tag"][1] + s["tag"][2] for s in frames)
    m["shard.framing.bytes_per_point"] = (frame_bytes / points if points else 0.0, "B")
    m["shard.router.ingest_call_us"] = (1e6 * _p50(durations("shard.router.ingest")), "us")
    m["shard.router.rpc_us"] = (1e6 * _p50(durations("shard.router.rpc")), "us")
    m["shard.router.replay_frames"] = (
        _p50([s["tag"] for s in named("shard.router.checkpoint")]), "count")
    apply_seconds = sum(
        shard_stages.get(f"{stage}_seconds", 0.0)
        for stage in ("ingest", "maintain", "materialize")
    )
    m["shard.host.apply_ms"] = (1e3 * apply_seconds / workload.rounds, "ms")

    m["obs.accuracy.check_ms"] = (1e3 * _p50(durations("obs.accuracy.check")), "ms")
    m["obs.accuracy.checks"] = (len(named("obs.accuracy.check")), "count")
    return m, self_times(rounds)
