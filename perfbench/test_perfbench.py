"""Tests of the benchmark itself, at tiny scale.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench

The checker must reject wrong answers injected into a real run, and
every per-layer count must repeat exactly between two runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import streams  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics that are counts of work, not times.
COUNT_UNITS = {"count"}
COUNT_RATIOS = {"core.fixed_window.rebuilds_per_maintain"}


def tiny(workload_class, tmp_path, monkeypatch):
    """One checkpoint cycle, one setup, one restore."""
    monkeypatch.setattr(workload_class, "setup_reps", 1)
    monkeypatch.setattr(workload_class, "restore_reps", 1)
    return workload_class(3, 0.0, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path, monkeypatch):
    workload = tiny(workloads.WORKLOADS[name], tmp_path, monkeypatch)
    metrics = workload.run()
    assert workload.rounds == workload.cycle_rounds
    assert workload.attempted > 0
    assert all(value > 0 for value, _unit in metrics.values())


def test_rejects_perturbed_range_sum(tmp_path, monkeypatch):
    ask = streams.FixedWindowStream.ask
    # One unit on a sum of ~1e5: far beyond float noise, well inside
    # what a careless check would let through.
    monkeypatch.setattr(streams.FixedWindowStream, "ask",
                        lambda self, tier, args: ask(self, tier, args) + 1.0)
    workload = tiny(workloads.PaperWindow, tmp_path, monkeypatch)
    with pytest.raises(checker.CheckFailure, match="range_sum"):
        workload.run()


def test_rejects_gk_quantile_beyond_eps_n(tmp_path, monkeypatch):
    def off_by_rank(self, tier, fraction):
        ordered = np.sort(self.data[: self.seen])
        shift = int(2 * self.epsilon * ordered.size) + 2
        target = max(1, round(fraction * ordered.size))
        return float(ordered[min(ordered.size - 1, target - 1 + shift)])

    monkeypatch.setattr(streams.GKStream, "ask", off_by_rank)
    workload = tiny(workloads.SynopsisFleet, tmp_path, monkeypatch)
    with pytest.raises(checker.CheckFailure, match="off by"):
        workload.run()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rejects_restore_missing_a_batch(name, tmp_path, monkeypatch):
    restore = workloads.Workload.restore

    def restore_after_unsaved_batch(self, tier):
        # One more batch is applied but never checkpointed: the served
        # answers before close include it, the restored ones cannot.
        stream = self.streams[0]
        stream.send(tier, 0, stream.batch)
        tier.flush()
        restore(self, tier)

    monkeypatch.setattr(workloads.Workload, "restore", restore_after_unsaved_batch)
    workload = tiny(workloads.WORKLOADS[name], tmp_path, monkeypatch)
    with pytest.raises(checker.CheckFailure, match="after restore"):
        workload.run()


def test_probes_spread_evenly_over_cycle_ends(tmp_path):
    workload = workloads.ShardedFleet(3, 25.0, tmp_path)
    cycle = workload.cycle_rounds
    probes = sorted(workload.probe_rounds(workload.restore_reps - 1, cycle))
    assert len(probes) == workload.restore_reps - 1
    assert all((index + 1) % cycle == 0 for index in probes)
    gaps = np.diff([0] + [index + 1 for index in probes] + [workload.rounds])
    assert gaps.max() - gaps.min() <= cycle


def test_probes_restore_while_live(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.ShardedFleet, "setup_reps", 2)
    monkeypatch.setattr(workloads.ShardedFleet, "restore_reps", 2)
    workload = workloads.ShardedFleet(3, 0.0, tmp_path)
    workload.run()
    assert len(workload.samples["setup_s"]) == 2
    assert len(workload.samples["restore_s"]) == 2


def _traced(name: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_counts_repeat_exactly(name):
    first, second = _traced(name), _traced(name)
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    counts = {
        key for key, metric in first["metrics"].items()
        if metric["unit"] in COUNT_UNITS or key in COUNT_RATIOS
    }
    assert counts, "no count metrics reported"
    for key in sorted(counts):
        assert first["metrics"][key] == second["metrics"][key], key
    # Snapshot headers carry ``created_at = time.time()`` as a JSON float
    # whose text is 17 or 18 characters long, so a file's size may differ
    # by a byte or two between identical runs; nothing else may differ.
    for key in ("snapshot.full_bytes", "snapshot.delta_bytes"):
        assert abs(first["metrics"][key]["value"] - second["metrics"][key]["value"]) <= 2, key


def test_voptimal_matches_brute_force():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 50, size=9).astype(float)

    def brute(start: int, buckets: int) -> float:
        rest = values[start:]
        if rest.size == 0:
            return 0.0
        if buckets == 1 or rest.size == 1:
            return float(((rest - rest.mean()) ** 2).sum())
        return min(
            float(((rest[:k] - rest[:k].mean()) ** 2).sum()) + brute(start + k, buckets - 1)
            for k in range(1, rest.size + 1)
        )

    for buckets in (1, 2, 3, 4):
        assert checker.voptimal_sse(values, buckets) == pytest.approx(brute(0, buckets))


def test_haar_round_trip_and_optimum():
    rng = np.random.default_rng(1)
    values = rng.normal(size=64)
    assert np.allclose(checker.inverse_haar(checker.haar(values)), values)
    # Parseval: the transform keeps the energy, so dropping every
    # coefficient leaves the whole energy as the error.
    assert checker.best_wavelet_sse(values, 0) == pytest.approx(float(values @ values))
