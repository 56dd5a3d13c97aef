"""The benchmark's arithmetic, kept in one place so test_perfbench.py can
check it: medians, geometric means, tail percentiles that need enough
samples beyond them, error rates with their base, and run-to-run spread.
"""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def geomean(values):
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, p, min_beyond=MIN_SAMPLES_BEYOND):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Refuses when fewer than `min_beyond` samples
    lie beyond that rank."""
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{p} of {len(ordered)} samples has {len(ordered) - rank} "
            f"beyond it; need {min_beyond}")
    return ordered[rank - 1]


def error_rate(failed, attempted):
    """Operations that failed, were rejected, or returned a wrong result,
    over operations attempted."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def relative_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles' default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
