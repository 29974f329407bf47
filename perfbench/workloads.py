"""The three workloads and the round-paced runner they share.

A run's work depends on the workload, the seed and ``--seconds`` alone,
never on thread timing:

* producers pace in *rounds*: one batch to every stream, then one
  ``flush()`` barrier, so every worker applies exactly one batch per
  drain cycle and the number of rebuilds and materializations repeats
  exactly, as do checkpointed bytes up to the wall-clock stamp in each
  snapshot header;
* queries, checkpoints, set-up probes and restore probes run between
  rounds, never alongside ingest; the probes are spread over the run;
* checkpoints are taken at flush barriers;
* ``--seconds`` fixes the number of rounds (whole checkpoint cycles at
  the workload's nominal round rate), not a deadline.

Latencies are reported as medians over many rounds.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import checker
from streams import (
    AgglomerativeStream,
    CRPrecisStream,
    DynamicWaveletStream,
    EHStream,
    EquiDepthStream,
    ExactStream,
    FixedWindowStream,
    GKStream,
    ReservoirStream,
    WaveletStream,
)

from repro.datasets import att_utilization_stream
from repro.service import StreamService
from repro.service.qos import QoSConfig, TenantQuota
from repro.shard import ShardRouter

CHECKS_METRIC = "repro_accuracy_checks_total"
VIOLATIONS_METRIC = "repro_accuracy_violations_total"

#: Every stream of the QoS workloads belongs to this tenant, at priority 0.
TENANT = "bench"

#: Quotas that never run dry; priority 0 sits below the default
#: ``shed_priority_floor`` of 1, so the ladder never sheds these streams.
NEVER_SHED = QoSConfig(tenants=((TENANT, TenantQuota(rate=1e12, burst=1e12)),))

#: Seed of the fixed utilization trace (the dataset's default seed);
#: paper_window reads it as the paper read its one AT&T trace (see
#: README.md).
TRACE_SEED = 7

#: The GK stream reads a prefix of one fixed trace of this length, so its
#: monitor checks, the run's one known failing operation, see the same
#: points whatever the seed and the run length.  Its 4,096-point prefill
#: makes every measured check fail; after a 1,024-point prefill the first
#: rounds' checks pass, and the failed share would depend on run length.
GK_TRACE_POINTS = 2**18
GK_PREFILL = 4096


def steal_ticks() -> int:
    """Cumulative steal time of the host's CPUs (``/proc/stat``, 10 ms ticks)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Workload:
    """Round-paced runner; subclasses define streams and the tier."""

    name = ""
    #: Rounds per checkpoint, checkpoints per full base snapshot, and
    #: rounds per cycle (every periodic operation repeats per cycle).
    checkpoint_every = 1
    base_every = 4
    cycle_rounds = 4
    #: Rounds per second on the reference host; sets the run length.
    nominal_rounds_per_s = 1.0
    #: Timed set-ups and restores per run (the live tier's set-up and
    #: the restore after the final close included).
    setup_reps = 3
    restore_reps = 3
    queries_per_stream = 1
    prefill = 1024
    batch = 16
    #: QoS config of the tier; its streams join the never-shed tenant.
    qos = None

    def __init__(self, seed: int, seconds: float, workdir: Path, marks=None) -> None:
        self.seed = int(seed)
        rounds = int(round(seconds * self.nominal_rounds_per_s / self.cycle_rounds))
        self.rounds = self.cycle_rounds * max(1, rounds)
        self.length = self.prefill + self.rounds * self.batch
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng([self.seed, 1])
        #: Phase marks (label, start, end) used to attribute trace spans.
        self.marks = marks if marks is not None else []
        self.streams = self.make_streams()
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list] = {
            "setup_s": [], "apply_ms": [], "query_us": [], "checkpoint_ms": [],
            "checkpoint_bytes": [], "restore_s": [], "range_abs_error": [],
            # Steal ticks the host counted across each timed set-up,
            # round and restore, so busy periods show in the run record.
            "setup_steal": [], "apply_steal": [], "restore_steal": [],
        }
        self.counts: dict = {}

    # -- subclass hooks ----------------------------------------------------

    def make_streams(self) -> list:
        raise NotImplementedError

    def open_tier(self, directory: Path):
        raise NotImplementedError

    def restore_tier(self, directory: Path):
        raise NotImplementedError

    def monitored(self) -> dict:
        """Streams with an AccuracyMonitor -> the benchmark's own check."""
        return {}

    def shard_pids(self, tier) -> list[int]:
        return []

    # -- phases ------------------------------------------------------------

    def _mark(self, label: str, started: float) -> None:
        self.marks.append((label, started, time.perf_counter()))

    def setup_once(self, directory: Path):
        """Create every stream, prefill it, serve a first view."""
        tier = self.open_tier(directory)
        for stream in self.streams:
            tier.create_stream(stream.name, stream.backend, stream.params(),
                               **self.stream_options(stream))
        for stream in self.streams:
            stream.feed_prefill(tier)
        tier.flush()
        for stream in self.streams:
            stream.seen = stream.prefill
            stream.ask(tier, stream.queries(np.random.default_rng(0), 1)[0])
        return tier

    def stream_options(self, stream) -> dict:
        options = dict(stream.spec_options())
        if self.qos is not None:
            options.update(tenant=TENANT, priority=0)
        return options

    def run(self) -> dict:
        gc.collect()  # no collection debt from earlier work lands in the timing
        self.directory = Path(tempfile.mkdtemp(prefix="live-", dir=self.workdir))
        stolen, started = steal_ticks(), time.perf_counter()
        tier = self.setup_once(self.directory)
        self.samples["setup_s"].append(time.perf_counter() - started)
        self.samples["setup_steal"].append(steal_ticks() - stolen)
        self._mark("setup", started)
        try:
            self.measure(tier)
        finally:
            tier.close(checkpoint=False)  # idempotent; stops shard processes
        return self.metrics()

    def probe_rounds(self, count: int, multiple: int = 1) -> set[int]:
        """Indices of ``count`` rounds evenly spread over the run, each
        one whose number is a multiple of ``multiple``; a probe runs
        after each.  Spreading the repeated set-ups and restores over the
        run lets their medians average the host's busy periods the way
        the round medians do, instead of all landing in one of them."""
        slots = self.rounds // multiple
        return {
            multiple * max(1, round(k * slots / (count + 1))) - 1
            for k in range(1, count + 1)
        }

    def measure(self, tier) -> None:
        self.monitor_marks = {
            name: self._monitor_counts(tier, name) for name in self.monitored()
        }
        setups = self.probe_rounds(self.setup_reps - 1)
        # At cycle ends, as the final restore: the same place in the
        # base/delta chain, so every restore replays the same deltas.
        restores = self.probe_rounds(self.restore_reps - 1, self.cycle_rounds)
        self.counts["before"] = self.layer_counts(tier)
        for index in range(self.rounds):
            self.round(tier, index)
            if index in setups:
                self.setup_probe()
            if index in restores:
                self.restore_probe(tier)
        self.counts["after"] = self.layer_counts(tier)
        self.check_final(tier)
        self.peak_rss_mb = _hwm_mb() + sum(_hwm_mb(pid) for pid in self.shard_pids(tier))
        self.restore(tier)

    def setup_probe(self) -> None:
        """One more timed set-up, of a tier that is closed right after."""
        directory = Path(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))
        gc.collect()
        stolen, started = steal_ticks(), time.perf_counter()
        probe = self.setup_once(directory)
        self.samples["setup_s"].append(time.perf_counter() - started)
        self.samples["setup_steal"].append(steal_ticks() - stolen)
        self._mark("setup", started)
        probe.close(checkpoint=False)
        shutil.rmtree(directory)

    def restore_probe(self, tier) -> None:
        """Restore a copy of the snapshot directory taken at this cycle's
        last checkpoint barrier while the live tier idles; the restored
        tier must serve what the live one serves."""
        served = {s.name: s.fingerprint(tier) for s in self.streams}
        directory = self.workdir / f"restore-{len(self.samples['restore_s'])}"
        shutil.copytree(self.directory, directory)
        self.time_restore(directory, served)
        shutil.rmtree(directory)

    def round(self, tier, index: int) -> None:
        stolen, started = steal_ticks(), time.perf_counter()
        for stream in self.streams:
            stream.feed_round(tier, index)
        tier.flush()
        applied = time.perf_counter()
        self.samples["apply_ms"].append((applied - started) * 1e3)
        self.samples["apply_steal"].append(steal_ticks() - stolen)
        self.attempted += len(self.streams)
        for stream in self.streams:
            stream.seen = stream.prefill + (index + 1) * stream.batch
        for stream in self.streams:
            answers = []
            for args in stream.queries(self.rng, self.queries_per_stream):
                began = time.perf_counter()
                answer = stream.ask(tier, args)
                self.samples["query_us"].append((time.perf_counter() - began) * 1e6)
                answers.append((args, answer))
            self.samples["range_abs_error"].extend(stream.check(tier, answers))
            self.attempted += len(answers)
        self.account_monitors(tier)
        if (index + 1) % self.checkpoint_every == 0:
            self.checkpoint(tier)
        if (index + 1) % self.cycle_rounds == 0:
            for stream in self.streams:
                stream.deep_check(tier)
        self._mark(f"round:{index}", started)

    def checkpoint(self, tier) -> None:
        started = time.perf_counter()
        paths = tier.checkpoint()
        self.samples["checkpoint_ms"].append((time.perf_counter() - started) * 1e3)
        self.samples["checkpoint_bytes"].append(sum(os.path.getsize(p) for p in paths))
        self.attempted += 1

    def _monitor_counts(self, tier, name: str) -> tuple[int, int]:
        registry = tier.registry
        return (
            int(registry.counter(CHECKS_METRIC, stream=name).value),
            int(registry.counter(VIOLATIONS_METRIC, stream=name).value),
        )

    def account_monitors(self, tier) -> None:
        """Monitor checks are operations; a reported violation that the
        benchmark's own check contradicts is a failed one."""
        for name, own_check in self.monitored().items():
            checks, violations = self._monitor_counts(tier, name)
            last_checks, last_violations = self.monitor_marks[name]
            self.monitor_marks[name] = (checks, violations)
            new_checks = checks - last_checks
            new_violations = violations - last_violations
            self.attempted += new_checks
            if new_violations:
                own_check(tier)  # raises CheckFailure when the answer is wrong
                self.failed += new_violations

    def check_final(self, tier) -> None:
        """No point shed or refused; final whole-synopsis checks."""
        stats = tier.stats()
        for stream in self.streams:
            arrivals = int(stats[stream.name]["arrivals"])
            checker.check_equal(f"{stream.name} arrivals", arrivals, stream.seen)
            letters = stats[stream.name]["dead_letter"]
            checker.check_equal(f"{stream.name} poison points",
                                letters["poison_points"], 0)
        qos = tier.qos()
        if qos is not None:
            checker.check_equal("qos shed points", qos["shed_points"], 0)
            checker.check_equal("qos throttled points", qos["throttled_points"], 0)
        for stream in self.streams:
            final = getattr(stream, "final_check", None)
            if final is not None:
                final(tier)

    def restore(self, tier) -> None:
        """Close the live tier and restore it from its snapshot directory."""
        served = {s.name: s.fingerprint(tier) for s in self.streams}
        tier.close(checkpoint=False)
        self.time_restore(self.directory, served)

    def time_restore(self, directory: Path, served: dict) -> None:
        gc.collect()
        stolen, started = steal_ticks(), time.perf_counter()
        restored = self.restore_tier(directory)
        try:
            restored.flush()
            after = {s.name: s.fingerprint(restored) for s in self.streams}
            self.samples["restore_s"].append(time.perf_counter() - started)
            self.samples["restore_steal"].append(steal_ticks() - stolen)
            self._mark("restore", started)
        finally:
            restored.close(checkpoint=False)
        for name, before in served.items():
            checker.check_equal(f"{name} after restore", after[name], before)

    # -- per-layer counts (deterministic, from the program's counters) ------

    def layer_counts(self, tier) -> dict:
        stats = tier.stats()
        counts = {}
        for stream in self.streams:
            counts[stream.name] = dict(stats[stream.name]["maintainer"])
        # Stage series of every service; ``shard_stages`` keeps the ones
        # the shard processes report through the router.
        stages: dict[str, float] = {}
        shard_stages: dict[str, float] = {}
        for sample in tier.metrics():
            if sample["name"] != "repro_stage_seconds":
                continue
            stage = sample["labels"]["stage"]
            targets = [stages]
            if sample["labels"].get("shard", "router") != "router":
                targets.append(shard_stages)
            for target in targets:
                target[f"{stage}_count"] = target.get(f"{stage}_count", 0) + sample["count"]
                target[f"{stage}_seconds"] = target.get(f"{stage}_seconds", 0.0) + sample["sum"]
        counts["stages"] = stages
        counts["shard_stages"] = shard_stages
        return counts

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        s = self.samples
        points = sum(stream.batch for stream in self.streams)
        apply_p50 = percentile(s["apply_ms"], 50)
        errors = s["range_abs_error"]
        return {
            "setup_s": (float(np.median(s["setup_s"])), "s"),
            "ingest_pts_per_s": (points / (apply_p50 / 1e3), "pts/s"),
            "apply_p50_ms": (apply_p50, "ms"),
            "apply_p75_ms": (percentile(s["apply_ms"], 75), "ms"),
            "query_p50_us": (percentile(s["query_us"], 50), "us"),
            "checkpoint_bytes": (float(np.mean(s["checkpoint_bytes"])), "B"),
            "restore_s": (float(np.median(s["restore_s"])), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "range_sum_mae": (float(np.mean(errors)), "value"),
        }


class _ThreadedWorkload(Workload):
    def open_tier(self, directory):
        return StreamService(directory, snapshot_base_every=self.base_every, qos=self.qos)

    def restore_tier(self, directory):
        return StreamService.restore(
            directory, snapshot_base_every=self.base_every, qos=self.qos
        )


class PaperWindow(_ThreadedWorkload):
    """The paper's three algorithms on the fixed utilization trace."""

    name = "paper_window"
    batch = 16
    queries_per_stream = 8
    nominal_rounds_per_s = 3.2
    restore_reps = 5
    checkpoint_every = 2
    base_every = 8
    cycle_rounds = 16
    window = 1024

    def make_streams(self):
        values = att_utilization_stream(self.length, seed=TRACE_SEED)
        common = (values, self.prefill, self.batch)
        return [
            FixedWindowStream(
                "fixed", *common, window=self.window, buckets=16, epsilon=0.1,
                accuracy={"epsilon": 0.1, "mode": "sse", "window_size": self.window,
                          "check_every": self.cycle_rounds * self.batch},
            ),
            WaveletStream("wavelet", *common, window=self.window, budget=16),
            AgglomerativeStream("agglomerative", *common, buckets=16, epsilon=0.25),
        ]

    def monitored(self):
        fixed = self.streams[0]
        return {fixed.name: fixed.deep_check}


class SynopsisFleet(_ThreadedWorkload):
    """Every remaining backend behind one service with QoS and deltas."""

    name = "synopsis_fleet"
    batch = 256
    queries_per_stream = 2
    nominal_rounds_per_s = 16.0
    setup_reps = 7
    restore_reps = 15
    qos = NEVER_SHED
    domain = 4096

    def make_streams(self):
        values = att_utilization_stream(self.length, seed=self.seed)
        gk_points = GK_PREFILL + self.rounds * self.batch
        if gk_points > GK_TRACE_POINTS:
            raise ValueError(f"{self.rounds} rounds outrun the {GK_TRACE_POINTS}-point GK trace")
        fixed = att_utilization_stream(GK_TRACE_POINTS, seed=TRACE_SEED)[:gk_points]
        keys = np.minimum(values, self.domain - 1)
        common = (self.prefill, self.batch)
        return [
            GKStream(
                "gk", fixed, GK_PREFILL, self.batch, epsilon=0.05,
                accuracy={"epsilon": 0.05, "mode": "quantile", "window_size": 512,
                          "check_every": self.batch},
            ),
            EquiDepthStream("equi_depth", values, *common, buckets=16, epsilon=0.01),
            ReservoirStream("reservoir", values, *common, capacity=256,
                            seed=self.seed),
            ExactStream("exact", values, *common, window=1024),
            DynamicWaveletStream("dyn_wavelet", keys, *common, domain=self.domain,
                                 budget=32),
            EHStream("eh", values, *common, window=1024, epsilon=0.1),
            CRPrecisStream("cr_precis", turnstile_updates(
                self.length, self.domain, np.random.default_rng([self.seed, 2])),
                *common, rows=8, base=64, domain=self.domain),
        ]

    def monitored(self):
        gk = self.streams[0]
        deciles = np.linspace(0.1, 0.9, 9)
        return {gk.name: lambda tier: gk.check_probes(tier, deciles)}


class ShardedFleet(Workload):
    """16 cheap streams over a 2-shard process tier."""

    name = "sharded_fleet"
    batch = 64
    queries_per_stream = 1
    nominal_rounds_per_s = 25.6
    checkpoint_every = 4
    cycle_rounds = 16
    setup_reps = 7
    restore_reps = 15
    num_shards = 2
    domain = 4096
    qos = NEVER_SHED

    def make_streams(self):
        streams = []
        for index in range(4):
            rng = np.random.default_rng([self.seed, 3, index])
            values = att_utilization_stream(self.length, seed=int(rng.integers(2**31)))
            common = (self.prefill, self.batch)
            streams += [
                ExactStream(f"exact{index}", values, *common, window=1024),
                GKStream(f"gk{index}", values, *common, epsilon=0.05),
                CRPrecisStream(f"cr{index}", turnstile_updates(self.length, self.domain, rng),
                               *common, rows=8, base=64, domain=self.domain),
                ReservoirStream(f"reservoir{index}", values, *common, capacity=256,
                                seed=index),
            ]
        return streams

    def open_tier(self, directory):
        return ShardRouter(self.num_shards, directory, snapshot_base_every=self.base_every,
                           qos=self.qos)

    def restore_tier(self, directory):
        return ShardRouter.restore(directory, snapshot_base_every=self.base_every,
                                   qos=self.qos)

    def shard_pids(self, tier):
        return [state["pid"] for state in tier.shard_states().values()]


def turnstile_updates(length: int, domain: int, rng: np.random.Generator) -> np.ndarray:
    """``length`` signed unit updates (CR-precis encoding) over Zipf keys.

    The first 1024 are inserts; after that one update in four deletes a
    key drawn from the live multiset, so frequencies never go negative
    (the strict turnstile model).
    """
    draws = (rng.zipf(1.3, size=length) - 1) % domain
    delete = rng.random(length) < 0.25
    picks = rng.random(length)
    live: list[int] = []
    out = np.empty(length, dtype=np.float64)
    for position in range(length):
        if position >= 1024 and delete[position] and live:
            slot = int(picks[position] * len(live))
            key = live[slot]
            live[slot] = live[-1]
            live.pop()
            out[position] = -(key + 1)
        else:
            key = int(draws[position])
            live.append(key)
            out[position] = key
    return out


WORKLOADS = {w.name: w for w in (PaperWindow, SynopsisFleet, ShardedFleet)}
