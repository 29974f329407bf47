"""Answer checks computed apart from the program under test.

Everything here is plain numpy over the benchmark's own copy of each
stream; nothing is imported from ``repro``.  Each check raises
:class:`CheckFailure` with a message naming the stream and the numbers
that disagree, so one failed check fails the whole run.

Served synopses are read as the JSON renderings the service hands out
(``histogram()``), never through the program's own query code:

* histograms: ``{"ends": [...], "values": [...]}`` bucket means;
* wavelet synopses: ``{"indices", "values", "padded_length",
  "true_length"}`` orthonormal Haar coefficients.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

#: Relative slack for float comparisons of sums computed two ways.
REL_TOL = 1e-9


class CheckFailure(AssertionError):
    """A served answer disagrees with the independent computation."""


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(scale) + abs(a) + abs(b)) * 16


# ----------------------------------------------------------------------
# Exact references
# ----------------------------------------------------------------------


def cumulative(values: np.ndarray) -> np.ndarray:
    """Prefix sums with a leading zero: ``sum(v[i..j]) = c[j+1] - c[i]``."""
    return np.concatenate(([0.0], np.cumsum(np.asarray(values, dtype=np.float64))))


def range_sum(cum: np.ndarray, i: int, j: int) -> float:
    return float(cum[j + 1] - cum[i])


def voptimal_sse(values, buckets: int) -> float:
    """Optimal B-bucket SSE of ``values`` (the O(n^2 B) V-optimal DP).

    Memory stays O(n) per level: each level is computed in column blocks
    so a long prefix never materializes the n x n cost matrix.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        return 0.0
    s = np.concatenate(([0.0], np.cumsum(x)))
    q = np.concatenate(([0.0], np.cumsum(x * x)))
    ends = np.arange(1, n + 1)
    # cost of one bucket over [0, j): q[j] - s[j]^2 / j
    best = q[1:] - s[1:] ** 2 / ends
    best = np.maximum(best, 0.0)
    block = 256
    for level in range(2, min(buckets, n) + 1):
        nxt = np.empty(n)
        nxt[: level - 1] = 0.0
        prev = best
        for lo in range(level - 1, n, block):
            hi = min(n, lo + block)
            j = np.arange(lo + 1, hi + 1)  # prefix lengths
            i = np.arange(1, hi)  # split after i points (i >= 1)
            # bucket [i, j): len j - i
            length = j[:, None] - i[None, :]
            valid = length > 0
            safe = np.where(valid, length, 1)
            seg_s = s[j][:, None] - s[i][None, :]
            seg_q = q[j][:, None] - q[i][None, :]
            cost = np.maximum(seg_q - seg_s * seg_s / safe, 0.0)
            total = np.where(valid, prev[i - 1][None, :] + cost, np.inf)
            nxt[lo:hi] = total.min(axis=1)
        best = np.minimum(nxt, prev)
    return float(best[-1])


def histogram_sse(rendering: dict, values) -> float:
    """SSE of a served bucket histogram against the true values."""
    x = np.asarray(values, dtype=np.float64)
    ends = np.asarray(rendering["ends"], dtype=np.int64)
    means = np.asarray(rendering["values"], dtype=np.float64)
    if ends.size == 0 or ends[-1] != x.size - 1:
        raise CheckFailure(
            f"histogram covers {int(ends[-1]) + 1 if ends.size else 0} "
            f"positions, the stream copy has {x.size}"
        )
    sizes = np.diff(np.concatenate(([-1], ends)))
    return float(np.sum((x - np.repeat(means, sizes)) ** 2))


def histogram_range_sum(rendering: dict, i: int, j: int) -> float:
    """Sum of positions ``[i, j]`` read off served bucket means."""
    ends = np.asarray(rendering["ends"], dtype=np.int64)
    means = np.asarray(rendering["values"], dtype=np.float64)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lo = np.maximum(starts, i)
    hi = np.minimum(ends, j)
    overlap = np.maximum(hi - lo + 1, 0)
    return float(np.sum(overlap * means))


def haar(values) -> np.ndarray:
    """Orthonormal Haar coefficients, index 0 the scaled average and
    index ``2^l + k`` the k-th detail of level l (coarse to fine)."""
    x = np.asarray(values, dtype=np.float64).copy()
    n = x.size
    if n & (n - 1):
        raise ValueError("haar needs a power-of-two length")
    out = np.empty(n)
    length = n
    while length > 1:
        half = length // 2
        pairs = x[:length].reshape(half, 2)
        out[half:length] = (pairs[:, 0] - pairs[:, 1]) / np.sqrt(2.0)
        x[:half] = (pairs[:, 0] + pairs[:, 1]) / np.sqrt(2.0)
        length = half
    out[0] = x[0]
    return out


def inverse_haar(coefficients) -> np.ndarray:
    c = np.asarray(coefficients, dtype=np.float64)
    n = c.size
    x = c[:1].copy()
    length = 1
    while length < n:
        detail = c[length : 2 * length]
        nxt = np.empty(2 * length)
        nxt[0::2] = (x + detail) / np.sqrt(2.0)
        nxt[1::2] = (x - detail) / np.sqrt(2.0)
        x = nxt
        length *= 2
    return x


def wavelet_reconstruction(rendering: dict) -> np.ndarray:
    dense = np.zeros(int(rendering["padded_length"]))
    for index, value in zip(rendering["indices"], rendering["values"]):
        dense[int(index)] = float(value)
    return inverse_haar(dense)[: int(rendering["true_length"])]


def best_wavelet_sse(values, budget: int) -> float:
    """SSE of the optimal ``budget``-term Haar synopsis (Parseval)."""
    c = haar(values)
    energy = np.sort(c * c)[::-1]
    return float(energy[budget:].sum())


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_equal(stream: str, served, expected) -> None:
    if served != expected:
        raise CheckFailure(f"{stream}: served {served!r}, expected {expected!r}")


def check_close(stream: str, what: str, served: float, expected: float) -> None:
    if not _close(served, expected):
        raise CheckFailure(
            f"{stream}: {what} served {served!r}, independent {expected!r}"
        )


def check_histogram_bound(
    stream: str, rendering: dict, values, buckets: int, epsilon: float
) -> float:
    """Theorem 1: served SSE <= (1 + eps) OPT.  Returns the served SSE."""
    served = histogram_sse(rendering, values)
    if len(rendering["ends"]) > buckets:
        raise CheckFailure(
            f"{stream}: {len(rendering['ends'])} buckets, budget {buckets}"
        )
    optimal = voptimal_sse(values, buckets)
    if served > (1.0 + epsilon) * optimal + 1e-6 * (1.0 + optimal):
        raise CheckFailure(
            f"{stream}: SSE {served:.6g} exceeds (1+{epsilon:g}) x OPT "
            f"{optimal:.6g} over {len(values)} points"
        )
    return served


def check_wavelet_optimal(stream: str, rendering: dict, values, budget: int) -> None:
    """The served B-term synopsis has the optimal B-term Haar SSE."""
    if len(rendering["indices"]) > budget:
        raise CheckFailure(
            f"{stream}: {len(rendering['indices'])} coefficients, budget {budget}"
        )
    x = np.asarray(values, dtype=np.float64)
    served = float(np.sum((x - wavelet_reconstruction(rendering)) ** 2))
    optimum = best_wavelet_sse(x, budget)
    if abs(served - optimum) > 1e-6 * (1.0 + optimum):
        raise CheckFailure(
            f"{stream}: wavelet SSE {served:.9g} differs from the "
            f"{budget}-term optimum {optimum:.9g}"
        )


def check_rank(stream: str, answer: float, fraction: float, values, epsilon: float) -> None:
    """GK guarantee: the answer's rank is within eps*N + 1 of fraction*N."""
    n = values.size
    lo = int(np.count_nonzero(values < answer)) + 1
    hi = int(np.count_nonzero(values <= answer))
    if hi < lo:
        raise CheckFailure(f"{stream}: quantile answer {answer!r} is not a stream value")
    target = max(1, int(round(fraction * n)))
    distance = 0 if lo <= target <= hi else min(abs(lo - target), abs(hi - target))
    if distance > epsilon * n + 1.0:
        raise CheckFailure(
            f"{stream}: q({fraction:g}) = {answer!r} has rank [{lo}, {hi}], "
            f"target {target}, off by {distance} > eps*N + 1 = {epsilon * n + 1:g}"
        )


def check_reservoir(stream: str, sample, stream_counts: Counter, capacity: int, seen: int) -> None:
    """A reservoir holds min(k, N) values, all drawn from the stream."""
    sample = list(sample)
    if len(sample) != min(capacity, seen):
        raise CheckFailure(
            f"{stream}: sample size {len(sample)}, expected {min(capacity, seen)}"
        )
    drawn = Counter(sample)
    for value, count in drawn.items():
        if stream_counts.get(value, 0) < count:
            raise CheckFailure(
                f"{stream}: sample holds {value!r} x{count}, the stream "
                f"only {stream_counts.get(value, 0)}"
            )


def check_relative(stream: str, what: str, served: float, exact: float, epsilon: float) -> None:
    """DGIM guarantee: an eps-relative estimate."""
    if abs(served - exact) > epsilon * exact + 1e-9 * (1.0 + exact):
        raise CheckFailure(
            f"{stream}: {what} {served!r} vs exact {exact!r} exceeds eps={epsilon:g}"
        )


def first_primes(base: int, count: int) -> list[int]:
    primes: list[int] = []
    candidate = max(2, base)
    while len(primes) < count:
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            primes.append(candidate)
        candidate += 1
    return primes


def cr_precis_bound(rows: int, base: int, domain: int, l1: int, frequency: int) -> float:
    """CR-precis overestimate bound ``(||f||_1 - f_x) * e / t``."""
    smallest = first_primes(base, 1)[0]
    exponent, power = 0, 1
    while power * smallest <= domain - 1:
        power *= smallest
        exponent += 1
    return (l1 - frequency) * exponent / rows


def check_point_estimate(stream: str, key: int, served: int, frequency: int, bound: float) -> None:
    if served < frequency:
        raise CheckFailure(f"{stream}: f[{key}] served {served} < true {frequency}")
    if served - frequency > bound + 1e-9:
        raise CheckFailure(
            f"{stream}: f[{key}] served {served}, true {frequency}, "
            f"overestimate beyond bound {bound:g}"
        )
