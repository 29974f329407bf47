"""Hosted streams of the benchmark: inputs, served queries and checks.

Each class owns one stream's whole input (generated up front from the
workload seed), feeds it one batch per round, issues the stream's
native query verb, and checks every served answer with
:mod:`checker`.  ``seen`` is the number of points the benchmark has
confirmed applied (it advances only at a ``flush()`` barrier).

The ``tier`` argument of the query methods is either a
``StreamService`` or a ``ShardRouter``; both answer ``range_sum``,
``quantile`` and ``histogram``.  Only the threaded service serves the
frozen synopsis object itself (``synopsis(name)``), which is how the
counting verbs are read there.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import checker


class Stream:
    """One hosted stream; subclasses define the backend and its checks."""

    backend = ""

    def __init__(self, name: str, data: np.ndarray, prefill: int, batch: int) -> None:
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.prefill = prefill
        self.batch = batch
        self.seen = 0

    # -- configuration ---------------------------------------------------

    def params(self) -> dict:
        raise NotImplementedError

    #: Maintenance cadence in arrivals: the service configuration
    #: default, and a multiple of every workload's batch boundaries.
    maintain_every = 64

    def spec_options(self) -> dict:
        return {"maintain_every": self.maintain_every}

    # -- feeding ---------------------------------------------------------

    def send(self, tier, start: int, stop: int) -> int:
        return tier.ingest(self.name, self.data[start:stop])

    def feed_prefill(self, tier) -> int:
        return self.send(tier, 0, self.prefill)

    def feed_round(self, tier, round_index: int) -> int:
        start = self.prefill + round_index * self.batch
        return self.send(tier, start, start + self.batch)

    # -- queries -----------------------------------------------------------

    def queries(self, rng: np.random.Generator, count: int) -> list:
        """``count`` query argument tuples for :meth:`ask`."""
        raise NotImplementedError

    def ask(self, tier, args):
        raise NotImplementedError

    def check(self, tier, answers: list) -> list[float]:
        """Check served answers; returns absolute range-sum errors."""
        raise NotImplementedError

    def deep_check(self, tier) -> None:
        """Check the whole served synopsis (run at cycle ends)."""

    def fingerprint(self, tier):
        """The served synopsis rendering, compared across a restore."""
        return tier.histogram(self.name)


# ----------------------------------------------------------------------
# Positional streams (range sums over a window or the prefix)
# ----------------------------------------------------------------------


class _Positional(Stream):
    def extent(self) -> tuple[int, int]:
        """Stream positions ``[lo, hi)`` the served view describes now."""
        raise NotImplementedError

    def truth(self) -> tuple[int, int]:
        """Positions a user means by the served coordinates: the current
        window (or prefix), whatever the view's staleness."""
        return self.extent()

    def queries(self, rng, count):
        lo, hi = self.truth()
        length = hi - lo
        starts = rng.integers(0, length, size=count)
        spans = rng.integers(1, length + 1, size=count)
        return [
            (int(i), int(min(length - 1, i + s - 1))) for i, s in zip(starts, spans)
        ]

    def ask(self, tier, args):
        return tier.range_sum(self.name, args[0], args[1])

    def served_sum(self, rendering: dict, i: int, j: int) -> float:
        raise NotImplementedError

    def check(self, tier, answers):
        rendering = tier.histogram(self.name)
        lo, hi = self.truth()
        cum = checker.cumulative(self.data[lo:hi])
        errors = []
        for (i, j), served in answers:
            checker.check_close(
                self.name, f"range_sum({i}, {j})", served,
                self.served_sum(rendering, i, j),
            )
            errors.append(abs(served - checker.range_sum(cum, i, j)))
        return errors


class FixedWindowStream(_Positional):
    """The paper's fixed-window histogram; Theorem 1 checked by DP."""

    backend = "fixed_window"

    def __init__(self, name, data, prefill, batch, *, window, buckets, epsilon,
                 accuracy=None):
        super().__init__(name, data, prefill, batch)
        self.window, self.buckets, self.epsilon = window, buckets, epsilon
        self.accuracy = accuracy

    def params(self):
        return dict(window_size=self.window, num_buckets=self.buckets,
                    epsilon=self.epsilon)

    def spec_options(self):
        options = super().spec_options()
        if self.accuracy is not None:
            options["accuracy"] = dict(self.accuracy)
        return options

    def extent(self):
        return max(0, self.seen - self.window), self.seen

    def served_sum(self, rendering, i, j):
        return checker.histogram_range_sum(rendering, i, j)

    def deep_check(self, tier):
        lo, hi = self.extent()
        checker.check_histogram_bound(
            self.name, tier.histogram(self.name), self.data[lo:hi],
            self.buckets, self.epsilon,
        )


class WaveletStream(_Positional):
    """Fig. 6 baseline: top-B Haar synopsis recomputed per maintain.

    The served view is the synopsis of the window as of the last
    maintain; answers are checked against that window and their error
    is measured against the current one.
    """

    backend = "wavelet"

    def __init__(self, name, data, prefill, batch, *, window, budget):
        super().__init__(name, data, prefill, batch)
        self.window, self.budget = window, budget

    def params(self):
        return dict(window_size=self.window, budget=self.budget)

    def extent(self):
        end = (self.seen // self.maintain_every) * self.maintain_every
        return max(0, end - self.window), end

    def truth(self):
        return max(0, self.seen - self.window), self.seen

    def served_sum(self, rendering, i, j):
        cum = checker.cumulative(checker.wavelet_reconstruction(rendering))
        return checker.range_sum(cum, i, j)

    def deep_check(self, tier):
        lo, hi = self.extent()
        checker.check_wavelet_optimal(
            self.name, tier.histogram(self.name), self.data[lo:hi], self.budget
        )


class AgglomerativeStream(_Positional):
    """Whole-prefix (1+eps) histogram; bound checked over the prefix."""

    backend = "agglomerative"

    def __init__(self, name, data, prefill, batch, *, buckets, epsilon):
        super().__init__(name, data, prefill, batch)
        self.buckets, self.epsilon = buckets, epsilon

    def params(self):
        return dict(num_buckets=self.buckets, epsilon=self.epsilon)

    def extent(self):
        return 0, self.seen

    def served_sum(self, rendering, i, j):
        return checker.histogram_range_sum(rendering, i, j)

    def final_check(self, tier):
        """The prefix DP is O(N^2 B): run once, at the end of a run."""
        checker.check_histogram_bound(
            self.name, tier.histogram(self.name), self.data[: self.seen],
            self.buckets, self.epsilon,
        )


class ExactStream(_Positional):
    """The raw sliding buffer: answers must equal exact sums."""

    backend = "exact"

    def __init__(self, name, data, prefill, batch, *, window):
        super().__init__(name, data, prefill, batch)
        self.window = window

    def params(self):
        return dict(window_size=self.window)

    def extent(self):
        return max(0, self.seen - self.window), self.seen

    def check(self, tier, answers):
        lo, hi = self.extent()
        cum = checker.cumulative(self.data[lo:hi])
        for (i, j), served in answers:
            checker.check_equal(f"{self.name} range_sum({i}, {j})", served,
                                checker.range_sum(cum, i, j))
        return [0.0] * len(answers)


class DynamicWaveletStream(Stream):
    """[MVW00] wavelet over a frequency vector; range sums over keys."""

    backend = "dynamic_wavelet"

    def __init__(self, name, data, prefill, batch, *, domain, budget):
        super().__init__(name, data, prefill, batch)
        self.domain, self.budget = domain, budget

    def params(self):
        return dict(domain_size=self.domain, budget=self.budget)

    def frequencies(self) -> np.ndarray:
        keys = self.data[: self.seen].astype(np.int64)
        return np.bincount(keys, minlength=self.domain).astype(np.float64)

    def queries(self, rng, count):
        lows = rng.integers(0, self.domain, size=count)
        spans = rng.integers(1, self.domain // 4 + 1, size=count)
        return [(int(a), int(min(self.domain - 1, a + s - 1))) for a, s in zip(lows, spans)]

    def ask(self, tier, args):
        return tier.range_sum(self.name, args[0], args[1])

    def check(self, tier, answers):
        rendering = tier.histogram(self.name)
        served_cum = checker.cumulative(checker.wavelet_reconstruction(rendering))
        cum = checker.cumulative(self.frequencies())
        errors = []
        for (i, j), served in answers:
            checker.check_close(self.name, f"range_sum({i}, {j})", served,
                                checker.range_sum(served_cum, i, j))
            errors.append(abs(served - checker.range_sum(cum, i, j)))
        return errors

    def deep_check(self, tier):
        checker.check_wavelet_optimal(
            self.name, tier.histogram(self.name), self.frequencies(), self.budget
        )


# ----------------------------------------------------------------------
# Order statistics (whole prefix)
# ----------------------------------------------------------------------


class _Quantiles(Stream):
    fractions = (0.1, 0.5, 0.9)

    def queries(self, rng, count):
        picks = rng.integers(0, len(self.fractions), size=count)
        return [self.fractions[int(p)] for p in picks]

    def ask(self, tier, fraction):
        return tier.quantile(self.name, fraction)


class GKStream(_Quantiles):
    """Greenwald-Khanna: rank error <= eps*N of the whole prefix."""

    backend = "gk_quantiles"

    def __init__(self, name, data, prefill, batch, *, epsilon, accuracy=None):
        super().__init__(name, data, prefill, batch)
        self.epsilon = epsilon
        self.accuracy = accuracy

    def params(self):
        return dict(epsilon=self.epsilon)

    def spec_options(self):
        options = super().spec_options()
        if self.accuracy:
            options["accuracy"] = dict(self.accuracy)
        return options

    def check(self, tier, answers):
        prefix = self.data[: self.seen]
        for fraction, served in answers:
            checker.check_rank(self.name, served, fraction, prefix, self.epsilon)
        return []

    def check_probes(self, tier, fractions) -> None:
        """The benchmark's own whole-prefix rank check at ``fractions``."""
        prefix = self.data[: self.seen]
        for fraction in fractions:
            checker.check_rank(self.name, tier.quantile(self.name, float(fraction)),
                               float(fraction), prefix, self.epsilon)


class EquiDepthStream(GKStream):
    """Streaming equi-depth histogram; quantiles from its inner GK."""

    backend = "equi_depth"

    def __init__(self, name, data, prefill, batch, *, buckets, epsilon):
        super().__init__(name, data, prefill, batch, epsilon=epsilon)
        self.buckets = buckets

    def params(self):
        return dict(num_buckets=self.buckets, epsilon=self.epsilon)


class ReservoirStream(_Quantiles):
    """Uniform reservoir: a sample of the right size drawn from the stream."""

    backend = "reservoir"

    def __init__(self, name, data, prefill, batch, *, capacity, seed):
        super().__init__(name, data, prefill, batch)
        self.capacity, self.sample_seed = capacity, seed
        self._counts: Counter = Counter()
        self._counted = 0

    def params(self):
        return dict(capacity=self.capacity, seed=self.sample_seed)

    def check(self, tier, answers):
        self._counts.update(self.data[self._counted : self.seen].tolist())
        self._counted = self.seen
        sample = tier.histogram(self.name)["sample"]
        checker.check_reservoir(self.name, sample, self._counts, self.capacity, self.seen)
        for fraction, served in answers:
            checker.check_close(self.name, f"quantile({fraction})", served,
                                float(np.quantile(np.asarray(sample), fraction)))
        return []


# ----------------------------------------------------------------------
# Counting streams
# ----------------------------------------------------------------------


class EHStream(Stream):
    """DGIM exponential histogram: eps-relative windowed count and sum."""

    backend = "eh_count"

    def __init__(self, name, data, prefill, batch, *, window, epsilon):
        super().__init__(name, data, prefill, batch)
        self.window, self.epsilon = window, epsilon

    def params(self):
        return dict(window=self.window, epsilon=self.epsilon)

    def queries(self, rng, count):
        return [None] * count

    def ask(self, tier, _args):
        synopsis = tier.synopsis(self.name)
        return synopsis.nonzero_count(), synopsis.window_sum()

    def check(self, tier, answers):
        tail = self.data[max(0, self.seen - self.window) : self.seen]
        nonzero, total = float(np.count_nonzero(tail)), float(tail.sum())
        for _args, (count, window_sum) in answers:
            checker.check_relative(self.name, "nonzero count", count, nonzero, self.epsilon)
            checker.check_relative(self.name, "window sum", window_sum, total, self.epsilon)
        return []


class CRPrecisStream(Stream):
    """CR-precis turnstile table fed by ``update_many`` with deletions.

    ``data`` holds the signed unit updates already encoded as the
    service carries them (``key`` inserts, ``-(key + 1)`` deletes); the
    benchmark's copy of the frequency vector is a ``Counter`` of them.
    """

    backend = "cr_precis"

    def __init__(self, name, data, prefill, batch, *, rows, base, domain):
        super().__init__(name, data, prefill, batch)
        self.rows, self.base, self.domain = rows, base, domain
        self._freq: Counter = Counter()
        self._counted = 0

    def params(self):
        return dict(rows=self.rows, base=self.base, domain=self.domain)

    def send(self, tier, start, stop):
        encoded = self.data[start:stop].astype(np.int64)
        pairs = [(k, 1) if k >= 0 else (-k - 1, -1) for k in encoded.tolist()]
        return tier.update_many(self.name, pairs)

    def frequencies(self) -> Counter:
        for code in self.data[self._counted : self.seen].astype(np.int64).tolist():
            if code >= 0:
                self._freq[code] += 1
            else:
                self._freq[-code - 1] -= 1
        self._counted = self.seen
        return self._freq

    def queries(self, rng, count):
        keys = rng.integers(0, self.domain, size=count)
        lows = rng.integers(0, self.domain, size=count)
        return [(int(k), int(lo), int(min(self.domain - 1, lo + 63)))
                for k, lo in zip(keys, lows)]

    def ask(self, tier, args):
        key, lo, hi = args
        if hasattr(tier, "synopsis"):
            table = tier.synopsis(self.name)
            return table.point_query(key), table.range_count(lo, hi)
        # The process tier serves the table itself, as its rendering;
        # the answers are read off it outside the timed call.
        return tier.histogram(self.name)

    def check(self, tier, answers):
        freq = self.frequencies()
        l1 = sum(freq.values())
        errors = []
        for (key, lo, hi), answer in answers:
            if isinstance(answer, dict):
                point = _table_point(answer, key)
                ranged = sum(_table_point(answer, k) for k in range(lo, hi + 1))
            else:
                point, ranged = answer
            true = freq.get(key, 0)
            bound = checker.cr_precis_bound(self.rows, self.base, self.domain, l1, true)
            checker.check_point_estimate(self.name, key, int(point), true, bound)
            exact = sum(freq.get(k, 0) for k in range(lo, hi + 1))
            if ranged < exact:
                raise checker.CheckFailure(
                    f"{self.name}: range count [{lo}, {hi}] served {ranged} < true {exact}"
                )
            errors.append(float(ranged - exact))
        return errors


def _table_point(rendering: dict, key: int) -> int:
    primes = [len(row) for row in rendering["tables"]]
    return min(int(row[key % p]) for row, p in zip(rendering["tables"], primes))
