"""Workload inputs, generated from the seed.

Every workload's inputs are a pure function of ``(workload, seed,
seconds)``: the same arguments give byte-identical operation files, and
``digest`` names them. Randomness comes from SplitMix64, so the inputs do
not depend on the Python version.

The operation file format is read by ``src/ops.rs``: one record per line,
kind first, fields separated by single spaces.
"""

import hashlib
import json

MASK = (1 << 64) - 1

CHIPS = ["lp", "hf"]
COOLINGS = ["air", "pipe", "oil", "fc", "water"]


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def uniform(self):
        return (self.next() >> 11) / float(1 << 53)

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def rng_for(workload, seed):
    """An independent stream per workload for the same seed."""
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:8], "little")
    return SplitMix64(seed ^ salt)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# cold-design
# ---------------------------------------------------------------------------

COLD_STACKS = list(range(1, 9))
COLD_GRIDS = [12, 16, 20, 24]
COLD_CYCLES = 20


def cold_cells():
    """(stacks, grid) cells in ascending cost order (node count, then grid)."""
    return sorted(((n, g) for n in COLD_STACKS for g in COLD_GRIDS),
                  key=lambda c: (c[0] * c[1] * c[1], c[1]))


def _bit_reverse(i, bits):
    return int(format(i, f"0{bits}b")[::-1], 2)


def cold_design(seed, seconds):
    """Each cycle visits all 32 (stacks, grid) cells once and is one
    block: runs measure whole cycles, so every run holds the same cost
    mix whatever the seed. Within a cycle the order is the bit-reversed
    cost rank XOR a seeded mask, so every prefix of 2^k operations holds
    one cell from each run of 32/2^k adjacent cost ranks. The seed picks
    the order and each cell's chip, cooling and flip; no design repeats
    within the 20 cycles."""
    rng = rng_for("cold-design", seed)
    cells = cold_cells()
    bits = (len(cells) - 1).bit_length()
    combos = [(c, k, f) for c in CHIPS for k in COOLINGS for f in (0, 1)]
    offsets = [rng.below(len(combos)) for _ in cells]
    lines = [f"# cold-design seed={seed}"]
    lines += ["setup hf 4 water 12 0"] * 3
    op = 0
    for cycle in range(COLD_CYCLES):
        mask = rng.below(len(cells))
        for i in range(len(cells)):
            rank = _bit_reverse(i, bits) ^ mask
            n, g = cells[rank]
            chip, cooling, flip = combos[(offsets[rank] + cycle) % len(combos)]
            lines.append(f"op {op} {cycle} {chip} {n} {cooling} {g} {flip}")
            op += 1
    return "\n".join(lines) + "\n"


def cold_ref_keys():
    return [f"{c} {n} {k} {g} {f}" for c in CHIPS for n in COLD_STACKS
            for k in COOLINGS for g in COLD_GRIDS for f in (0, 1)]


# ---------------------------------------------------------------------------
# warm-search
# ---------------------------------------------------------------------------

# (chip, stacks, cooling, grid, flip). The first runs away at its top VFS
# steps under leakage feedback: a query on it pays CG solves that stop
# only at the iteration cap.
WARM_MODELS = [
    ("hf", 6, "water", 4, 0),
    ("hf", 4, "oil", 8, 0),
    ("lp", 4, "water", 8, 1),
    ("hf", 2, "fc", 8, 0),
    ("lp", 8, "pipe", 8, 0),
    ("hf", 1, "air", 8, 1),
    ("lp", 3, "oil", 12, 0),
]
RUNAWAY_MODELS = [0]
# The runaway query: the ablation table's leakage-feedback search (6-chip
# high-frequency stack under water, default threshold), on a 4x4 grid.
RUNAWAY_QUERY = (0, 1, "-")
# Models on which leakage feedback converges at every step.
LEAKY_OK_MODELS = [1, 2, 3, 5, 6]
THRESHOLDS = ["-", "70", "75", "85", "90"]
WARM_BLOCKS = 40


def warm_queries():
    """Every (model, leakage, threshold) query the workload can draw."""
    fast = [(m, 0, t) for m in range(len(WARM_MODELS)) if m not in RUNAWAY_MODELS
            for t in THRESHOLDS]
    fast += [(m, 1, t) for m in LEAKY_OK_MODELS for t in THRESHOLDS]
    return fast, [RUNAWAY_QUERY]


def warm_search(seed, seconds):
    """Blocks of every converging query once, in a seeded order, plus the
    runaway query at a seeded position. Runs measure whole blocks, and
    every block holds the same queries, so every run holds the same query
    mix and the same runaway share whatever the seed."""
    rng = rng_for("warm-search", seed)
    fast, runaway = warm_queries()
    lines = [f"# warm-search seed={seed}", "repeat 11"]
    for i, (c, n, k, g, f) in enumerate(WARM_MODELS):
        lines.append(f"model {i} {c} {n} {k} {g} {f}")
    op = 0
    for block in range(WARM_BLOCKS):
        picks = rng.shuffle(list(fast))
        picks.insert(rng.below(len(picks) + 1), RUNAWAY_QUERY)
        for m, leak, t in picks:
            lines.append(f"op {op} {block} {m} {leak} {t}")
            op += 1
    return "\n".join(lines) + "\n"


def warm_ref_key(model, leak, threshold):
    c, n, k, g, f = WARM_MODELS[model]
    return f"{c} {n} {k} {g} {f} {leak} {threshold}"


def warm_ref_keys():
    fast, runaway = warm_queries()
    return [warm_ref_key(*q) for q in fast + runaway]


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

# The request mix follows the repository's own serve load test
# (crates/serve/src/loadgen.rs, whose run is BENCH_serve.json): its
# palette of 16 evaluate bodies (chip x cooling x 1-2 stacks x default or
# 75 C threshold) and 4 search bodies (2 stacks), drawn uniformly, 7
# evaluates to 3 searches. In its 120-request run, 20 bodies were new,
# 16 evaluates and 4 searches, and 100 were repeats, 66 evaluates and 34
# searches. Each window of 60 requests here holds half of those counts.
SERVE_CHIPS = ["lp", "hf"]
SERVE_COOLINGS = ["water", "oil"]
SERVE_STACKS = [1, 2]
SERVE_SEARCH_STACKS = 2
SERVE_GRID = [8, 8]
WINDOW = 60
FRESH_EVALUATES = 8
FRESH_SEARCHES = 2
REPEAT_EVALUATES = 33
REPEAT_SEARCHES = 17
# Offered rates, requests per second: the repository's load test offers
# about 540 (BENCH_serve.json: 120 requests over a 221 ms schedule); the
# ladder is a quarter, a half and all of it. A round runs one phase at
# each rate, lowest first, and then one closed-loop capacity phase (rate
# 0 below: every request is due at once, and each of the two connections
# sends its next request as soon as the last one is answered). A run is
# SERVE_ROUNDS rounds.
SERVE_RATES = [135, 270, 540]
# A capacity phase holds this many times a rate phase's requests.
CAPACITY_SCALE = 20
SERVE_ROUNDS = 4
# Fresh bodies carry a threshold that no other request uses. Fresh
# searches take the four search designs in turn, with thresholds in a
# band narrow enough that each design walks the same probe path every
# time, so every window costs the same.
FRESH_SEARCH_BAND = (70.0, 72.0)
FRESH_EVALUATE_BAND = (60.0, 90.0)
# Bounded-Pareto inter-arrival gaps, as in the repository's load test:
# shape 1.3, capped at 50 times the minimum gap.
PARETO_ALPHA = 1.3
PARETO_CAP = 50.0


def body(path, chip, chips, cooling, threshold=None):
    b = {"chip": chip, "chips": chips, "cooling": cooling, "grid": SERVE_GRID}
    if threshold is not None:
        b["threshold_c"] = threshold
    return path, json.dumps(b, sort_keys=True, separators=(",", ":"))


def serve_evaluate_geometries():
    return [(c, n, k) for c in SERVE_CHIPS for k in SERVE_COOLINGS for n in SERVE_STACKS]


def serve_search_geometries():
    return [(c, SERVE_SEARCH_STACKS, k) for c in SERVE_CHIPS for k in SERVE_COOLINGS]


def serve_palette():
    """The repeated bodies: (evaluate bodies, search bodies)."""
    evaluate = [body("/v1/evaluate", c, n, k, t)
                for c, n, k in serve_evaluate_geometries() for t in (None, 75.0)]
    search = [body("/v1/search", c, n, k) for c, n, k in serve_search_geometries()]
    return evaluate, search


def pareto_gaps(rng, count):
    """Bounded-Pareto inter-arrival gaps (unit minimum, capped)."""
    gaps = []
    for _ in range(count):
        u = min(rng.uniform(), 1.0 - 1e-12)
        gaps.append(min((1.0 - u) ** (-1.0 / PARETO_ALPHA), PARETO_CAP))
    return gaps


def serve_mixed(seed, seconds):
    """SERVE_ROUNDS rounds of one phase per offered rate plus a capacity
    phase. Every rate phase has the same number of requests (so each
    phase's tail percentile rests on the same sample count), and the
    capacity phase CAPACITY_SCALE times as many; all phases together
    last about ``seconds``. Arrivals are bounded-Pareto gaps rescaled to the phase's
    rate. Set-up has already stored every palette body, so repeats are
    store reads; fresh bodies are a solve plus a store write."""
    rng = rng_for("serve-mixed", seed)
    evaluate_pal, search_pal = serve_palette()
    geometries = serve_evaluate_geometries()
    searches = serve_search_geometries()
    used = set()
    fresh_searches = 0

    def fresh_threshold(lo, hi):
        while True:
            t = round(lo + (hi - lo) * rng.uniform(), 4)
            if t not in used and t != 75.0:
                used.add(t)
                return t

    def kinds(count):
        out = []
        while len(out) < count:
            w = (["fresh-search"] * FRESH_SEARCHES + ["fresh-evaluate"] * FRESH_EVALUATES
                 + ["search"] * REPEAT_SEARCHES + ["evaluate"] * REPEAT_EVALUATES)
            out += rng.shuffle(w)
        return out[:count]

    lines = [f"# serve-mixed seed={seed}", "repeat 15"]
    lines += [f"warm {p} {b}" for p, b in evaluate_pal + search_pal]
    # Budget: the capacity phase runs at roughly 2500 requests/s.
    per_round = sum(1.0 / r for r in SERVE_RATES) + CAPACITY_SCALE / 2500
    count = max(WINDOW, int(seconds / (SERVE_ROUNDS * per_round)) // WINDOW * WINDOW)
    op = 0
    phase = 0
    for _ in range(SERVE_ROUNDS):
        for k, rate in enumerate(SERVE_RATES + [0]):
            n = count if rate else CAPACITY_SCALE * count
            duration = n / rate if rate else 0.0
            lines.append(f"phase {phase} {k} {rate} {duration!r}")
            gaps = pareto_gaps(rng, n)
            scale = duration / sum(gaps)
            t = 0.0
            for gap, kind in zip(gaps, kinds(n)):
                due_us = int(t * 1e6)
                t += gap * scale
                if kind == "fresh-search":
                    c, n, cool = searches[fresh_searches % len(searches)]
                    fresh_searches += 1
                    p, b = body("/v1/search", c, n, cool, fresh_threshold(*FRESH_SEARCH_BAND))
                elif kind == "fresh-evaluate":
                    c, n, cool = geometries[rng.below(len(geometries))]
                    p, b = body("/v1/evaluate", c, n, cool, fresh_threshold(*FRESH_EVALUATE_BAND))
                elif kind == "search":
                    p, b = search_pal[rng.below(len(search_pal))]
                else:
                    p, b = evaluate_pal[rng.below(len(evaluate_pal))]
                lines.append(f"req {op} {phase} {due_us} {p} {b}")
                op += 1
            phase += 1
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# paper-sweep
# ---------------------------------------------------------------------------

SWEEP_GRID = 8  # the campaign's quick grid
SWEEP_CHIPS = 15
SWEEP_ROUNDS = 20


def paper_sweep(seed, seconds):
    """Rounds of the ten Figure 7/8 series (lp and hf x five coolings) in a
    seeded order; a round is one block."""
    rng = rng_for("paper-sweep", seed)
    series = [(c, k) for c in CHIPS for k in COOLINGS]
    lines = [f"# paper-sweep seed={seed}"]
    op = 0
    for block in range(SWEEP_ROUNDS):
        for c, k in rng.shuffle(list(series)):
            lines.append(f"op {op} {block} {c} {k} {SWEEP_GRID} {SWEEP_CHIPS}")
            op += 1
    return "\n".join(lines) + "\n"


def sweep_ref_keys():
    return [f"{c} {k} {SWEEP_GRID} {SWEEP_CHIPS}" for c in CHIPS for k in COOLINGS]


WORKLOADS = {
    "cold-design": cold_design,
    "warm-search": warm_search,
    "serve-mixed": serve_mixed,
    "paper-sweep": paper_sweep,
}

REF_KEYS = {
    "cold-design": cold_ref_keys,
    "warm-search": warm_ref_keys,
    "paper-sweep": sweep_ref_keys,
}


def generate(workload, seed, seconds):
    return WORKLOADS[workload](seed, seconds)
