"""Order statistics and span accounting."""

import statistics

# A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With n samples that is the (TAIL_BEYOND + 1)-th largest, which sits at
    percentile 100 * (n - TAIL_BEYOND) / n. Returns ``(value, percentile)``;
    with TAIL_BEYOND or fewer samples no percentile qualifies and the
    result is ``(max, None)``."""
    n = len(xs)
    if n == 0:
        return 0.0, None
    s = sorted(xs)
    if n <= TAIL_BEYOND:
        return s[-1], None
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quantile(xs, q):
    """Nearest-rank quantile, q in [0, 1]."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = min(len(s) - 1, max(0, int(-(-q * len(s) // 1)) - 1))
    return s[k]


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span of one operation.

    ``spans`` are dicts with ``idx``, ``parent``, ``name``, ``start_us``
    and ``end_us``. A span's self time is its duration minus the part of
    it that its children cover. Returns ``{name: total self time, us}``;
    the root span (no parent) is reported under ``"unattributed"``: the
    operation's time that no layer span covers. The values add up to the
    root span's duration when every child lies inside its parent."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(c["start_us"], c["end_us"]) for c in children.get(s["idx"], [])]
        own = (s["end_us"] - s["start_us"]) - covered(kids, s["start_us"], s["end_us"])
        name = "unattributed" if s["parent"] is None else s["name"]
        out[name] = out.get(name, 0.0) + own
    return out
