"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

The open-loop timing test against a stalled fake server is in Rust
(``src/loadgen.rs``): ``cargo test --manifest-path perfbench/Cargo.toml``.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bench import gen, measure, stats  # noqa: E402

GOLDEN_FIG7 = HERE.parent.parent / "tests" / "goldens" / "fig7_freq_vs_chips.csv"


class InputDigest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in gen.WORKLOADS:
            a = gen.digest(gen.generate(w, 7, 30))
            self.assertEqual(a, gen.digest(gen.generate(w, 7, 30)), w)
            self.assertNotEqual(a, gen.digest(gen.generate(w, 8, 30)), w)

    def test_cold_designs_are_distinct_and_every_prefix_block_is_stratified(self):
        ops = measure.parse_ops("cold-design", gen.cold_design(3, 30))
        keys = [" ".join(f) for _, _, f in ops]
        self.assertEqual(len(keys), len(set(keys)))
        cells = gen.cold_cells()
        rank = {c: i for i, c in enumerate(cells)}
        first = [rank[(int(f[1]), int(f[3]))] for _, _, f in ops[:16]]
        # One cell from each pair of adjacent cost ranks.
        self.assertEqual(sorted(r // 2 for r in first), list(range(16)))

    def test_every_cold_and_warm_query_has_a_reference(self):
        for w in ("cold-design", "warm-search", "paper-sweep"):
            refs = measure.load_refs(HERE.parent / "refs", w)
            self.assertEqual(set(refs), set(gen.REF_KEYS[w]()), w)

    def test_warm_blocks_hold_exactly_one_runaway_query(self):
        ops = measure.parse_ops("warm-search", gen.warm_search(5, 30))
        blocks = {}
        for _, b, f in ops:
            blocks.setdefault(b, []).append(int(f[0]) in gen.RUNAWAY_MODELS)
        fast, _ = gen.warm_queries()
        for flags in blocks.values():
            self.assertEqual(len(flags), len(fast) + 1)
            self.assertEqual(sum(flags), 1)

    def test_serve_phases_offer_their_rate_and_the_loadtest_mix(self):
        text = gen.serve_mixed(2, 30)
        ops = measure.parse_ops("serve-mixed", text)
        phases = [line.split(" ") for line in text.splitlines() if line.startswith("phase ")]
        self.assertEqual(len(phases), gen.SERVE_ROUNDS * (len(gen.SERVE_RATES) + 1))
        rate_counts = set()
        for (_, phase, _, rate, duration) in phases:
            n = sum(1 for _, p, _ in ops if p == int(phase))
            if float(rate) == 0.0:
                self.assertEqual(float(duration), 0.0)
                continue
            rate_counts.add(n)
            self.assertAlmostEqual(n / float(duration), float(rate))
        self.assertEqual(len(rate_counts), 1)
        self.assertEqual(len(ops), gen.SERVE_ROUNDS * (len(gen.SERVE_RATES) + gen.CAPACITY_SCALE)
                         * rate_counts.pop())
        evaluate_pal, search_pal = gen.serve_palette()
        palette = {b for _, b in evaluate_pal + search_pal}
        fresh = [b for _, _, (p, b) in ops if b not in palette]
        self.assertEqual(len(fresh), len(set(fresh)), "fresh bodies must never repeat")
        # Every window of 60 holds the repository load test's counts, halved.
        window = ops[:gen.WINDOW]
        count = lambda path, new: sum(1 for _, _, (p, b) in window if p == path and (b not in palette) == new)
        self.assertEqual(count("/v1/evaluate", True), 8)
        self.assertEqual(count("/v1/search", True), 2)
        self.assertEqual(count("/v1/evaluate", False), 33)
        self.assertEqual(count("/v1/search", False), 17)

    def test_capacity_requests_are_all_due_at_once(self):
        text = gen.serve_mixed(2, 30)
        skip = measure.capacity_ops(text)
        self.assertTrue(skip)
        for line in text.splitlines():
            if line.startswith("req "):
                _, oid, _, due, _ = line.split(" ", 4)
                if int(oid) in skip:
                    self.assertEqual(due, "0")


class ServeCapacity(unittest.TestCase):
    def test_capacity_is_good_requests_over_the_capacity_phases_time(self):
        phases = [{"phase": 0, "rate_idx": 0, "rate": 100},
                  {"phase": 1, "rate_idx": 3, "rate": 0},
                  {"phase": 2, "rate_idx": 3, "rate": 0}]
        reqs = {0: [{"ms": 1.0, "good": True}] * 50,
                1: [{"ms": 100.0 * (i + 1), "good": True} for i in range(10)],
                2: [{"ms": 50.0 * (i + 1), "good": i != 0} for i in range(10)]}
        # 19 good requests over 1.0 s + 0.5 s; the rate phase does not count.
        self.assertAlmostEqual(measure._capacity(phases, reqs), 19 / 1.5)


class FailedSolves(unittest.TestCase):
    def test_failed_solves_are_entries_minus_counted_solves(self):
        common = {"ev": "op", "pass": 0, "start_ms": 0.0, "ms": 1.0, "ok": True, "probes": 3,
                  "counted_iters": 10, "warm_iters": 1, "peak_c": 50.0, "freq_ghz": 1.0}
        events = [dict(common, id=0, solves=8, solve_entries=8),
                  dict(common, id=1, solves=20, solve_entries=24)]
        layer = {}
        measure._layer_closed_loop("warm-search", events, [], [], layer)
        self.assertEqual(layer["thermal.solve_failed"], 2.0)


class TailPercentile(unittest.TestCase):
    def test_at_least_ten_samples_lie_beyond_the_tail(self):
        for n in (11, 12, 30, 100, 1000, 4321):
            xs = [float((i * 7919) % n) for i in range(n)]  # a permutation of 0..n-1
            value, pct = stats.tail(xs)
            self.assertEqual(sum(1 for x in xs if x > value), 10, n)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)
            # Any higher sample would leave only nine beyond it.
            higher = min(x for x in xs if x > value)
            self.assertEqual(sum(1 for x in xs if x > higher), 9)

    def test_no_percentile_qualifies_with_ten_or_fewer_samples(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, None))
        self.assertEqual(stats.tail([float(i) for i in range(10)])[1], None)


def span(idx, parent, name, start, end):
    return {"idx": idx, "parent": parent, "name": name, "start_us": start, "end_us": end}


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children_and_sums_to_the_wall(self):
        spans = [
            span(0, None, "op", 0.0, 100.0),
            span(1, 0, "thermal.build", 10.0, 40.0),
            span(2, 1, "power.analyze", 20.0, 30.0),
            span(3, 0, "thermal.solve_cold", 50.0, 60.0),
        ]
        st = stats.self_times(spans)
        self.assertEqual(st, {"unattributed": 60.0, "thermal.build": 20.0,
                              "power.analyze": 10.0, "thermal.solve_cold": 10.0})
        self.assertEqual(sum(st.values()), 100.0)

    def test_overlapping_children_are_counted_once(self):
        spans = [
            span(0, None, "op", 0.0, 10.0),
            span(1, 0, "serve.request", 2.0, 6.0),
            span(2, 0, "serve.request", 4.0, 8.0),
        ]
        self.assertEqual(stats.self_times(spans)["unattributed"], 4.0)

    def test_same_layer_spans_add_up(self):
        spans = [span(0, None, "op", 0.0, 10.0), span(1, 0, "a", 0.0, 3.0), span(2, 0, "a", 5.0, 9.0)]
        self.assertEqual(stats.self_times(spans), {"unattributed": 3.0, "a": 7.0})


class CrashAccounting(unittest.TestCase):
    def test_a_crash_fails_the_operation_in_flight_and_the_rest_of_its_block(self):
        text = gen.paper_sweep(1, 30)
        planned = measure.parse_ops("paper-sweep", text)
        refs = measure.load_refs(HERE.parent / "refs", "paper-sweep")
        events = [{"ev": "setup", "pass": 0, "s": []}]
        for oid, _, f in planned[:3]:
            events.append({"ev": "op", "pass": 0, "id": oid, "start_ms": 0.0, "ms": 1.0, "ok": True,
                           "steps": refs[" ".join(f)]})
        s = measure.summarize("paper-sweep", events, text, refs,
                              {"signal": 11, "timeout": False, "exit": 0}, False)
        self.assertEqual((s["attempted"], s["failed"]), (10, 7))
        self.assertEqual(s["layer"]["explorer.sweep_crashes"], 1.0)
        self.assertFalse(s["correct"])

    def test_a_wrong_answer_is_a_failed_operation(self):
        text = gen.cold_design(1, 30)
        oid, _, f = measure.parse_ops("cold-design", text)[0]
        ref = measure.load_refs(HERE.parent / "refs", "cold-design")[" ".join(f)]
        events = [{"ev": "op", "pass": 0, "id": oid, "start_ms": 0.0, "ms": 5.0, "ok": True,
                   "peak_c": ref + 1.0, "nodes": 1, "levels": 1, "iters": 1}]
        s = measure.summarize("cold-design", events, text, {" ".join(f): ref},
                              {"signal": None, "timeout": False, "exit": 0}, False)
        self.assertEqual((s["attempted"], s["failed"]), (1, 1))


class References(unittest.TestCase):
    @unittest.skipUnless(GOLDEN_FIG7.exists(), "fig7 golden not in this checkout")
    def test_low_power_sweep_references_match_the_fig7_golden(self):
        # The golden is Figure 7 at the campaign's quick grid (8x8) for
        # 1-15 chips: the same settings as the lp paper-sweep series.
        refs = measure.load_refs(HERE.parent / "refs", "paper-sweep")
        names = {"air": "air", "water-pipe": "pipe", "mineral-oil": "oil",
                 "fluorinert": "fc", "water": "water"}
        rows = GOLDEN_FIG7.read_text().split("\n\n")[0].strip().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            want = [None if c == "-" else float(c) for c in cells[1:]]
            got = refs[f"lp {names[cells[0]]} {gen.SWEEP_GRID} {gen.SWEEP_CHIPS}"]
            got = [None if g is None else round(g, 1) for g in got]
            self.assertEqual(got, want, cells[0])

    def test_reference_files_are_sorted_json(self):
        for w in gen.REF_KEYS:
            text = (HERE.parent / "refs" / f"{w}.json").read_text()
            self.assertEqual(text, json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    unittest.main()
