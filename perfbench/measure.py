"""The benchmark's arithmetic, kept free of I/O so selftest.py can check
it on hand-made inputs: percentiles with their sample counts, the
paper's Eq. 1 error, est_err coverage, span self time, and host steal.
"""

import math


def percentile(values, q):
    """Nearest-rank q-th percentile, returned with the number of samples
    strictly above it, so a tail figure always states how many samples
    it rests on: (value, samples_beyond, sample_count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    value = ordered[rank - 1]
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond, len(ordered)


def relative_error(estimate, reference):
    if reference == 0:
        raise ValueError("relative error against a zero reference")
    return abs(estimate - reference) / reference


def max_error_pct(estimates, references):
    """Eq. 1 of the paper as a worst case: the largest
    |estimate - reference| / reference over every key, in percent.
    Both mappings must cover exactly the same keys."""
    if set(estimates) != set(references):
        raise ValueError("estimates and references cover different keys")
    if not estimates:
        raise ValueError("no keys to compare")
    return 100 * max(relative_error(estimates[k], references[k])
                     for k in estimates)


def coverage_pct(estimates, bounds, references):
    """Share of keys, in percent, whose relative error against the
    reference is within the reported bound (the sampled est_err)."""
    if not (set(estimates) == set(bounds) == set(references)):
        raise ValueError("estimates, bounds and references cover "
                         "different keys")
    if not estimates:
        raise ValueError("no keys to compare")
    covered = sum(1 for k in estimates
                  if relative_error(estimates[k], references[k])
                  <= bounds[k])
    return 100 * covered / len(estimates)


def covered_ns(intervals, begin, end):
    """Length of the union of [b, e) intervals, clipped to [begin, end)."""
    total = 0
    cursor = begin
    for b, e in sorted(intervals):
        b = max(b, cursor)
        e = min(e, end)
        if e > b:
            total += e - b
            cursor = e
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its
    child spans cover. `spans` maps a span key to a dict with
    begin, end and parent (None for a root)."""
    children = {}
    for key, span in spans.items():
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["begin"], span["end"]))
    return {key: (span["end"] - span["begin"]) -
            covered_ns(children.get(key, []), span["begin"], span["end"])
            for key, span in spans.items()}


def steal_pct(before, after):
    """Hypervisor steal as a share of all CPU time between two readings
    of /proc/stat's aggregate "cpu" line (lists of jiffy counters in
    kernel order: user nice system idle iowait irq softirq steal ...).
    Guest time is already counted in user/nice, so it is left out."""
    delta = [a - b for a, b in zip(after[:8], before[:8])]
    total = sum(delta)
    return 100 * delta[7] / total if total > 0 else 0.0
