#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and report its metrics.

    python3 perfbench/run.py --workload cold-design --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 20          # every workload, one after another
    python3 perfbench/run.py --make-refs           # regenerate perfbench/refs/

Run from the repository root. The script builds the executor
(``perfbench/Cargo.toml``) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), generates the workload's inputs from the seed, runs
the executor on them in a child process with a timeout, checks every
answer, and prints a human-readable report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench import gen, measure  # noqa: E402

# Workloads run by default, the ones BENCHMARK.json lists. cold-design
# and paper-sweep crash the executor in most runs at the seed commit (see
# README.md), so they run only when named.
DEFAULT_WORKLOADS = ["warm-search", "serve-mixed"]
# The executor is killed this long after it starts: with the build check
# before it, one invocation stays within 180 s.
BUDGET_S = 170.0


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Build the executor; exit non-zero (printing no result) on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if r.returncode != 0:
        sys.exit("perfbench: executor build failed")
    return target_dir() / "release" / "perfbench"


def run_child(cmd, timeout, env):
    """Run the executor; returns (events, status). A crash or timeout
    keeps every event it reported before it ended."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    timed_out = False
    try:
        out, err = p.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        timed_out = True
        p.kill()
        out, err = p.communicate()
    events = []
    for line in out.splitlines():
        if line.startswith("{"):
            try:
                events.append(json.loads(line))
            except ValueError:
                pass
    if err.strip():
        sys.stderr.write(err[-4000:])
    rc = p.returncode
    status = {
        "signal": -rc if rc is not None and rc < 0 and not timed_out else None,
        "timeout": timed_out,
        "exit": rc if rc is not None and rc > 0 else 0,
    }
    return events, status


def child_env(run_dir):
    # Keep every file the program writes inside the checkout. One malloc
    # arena: with glibc's default of eight per core, the executor's peak
    # memory depended on which arenas its short-lived threads landed on,
    # and varied from 20 to 27 MiB between runs of the same inputs; with
    # two it still jumped between 19 and 23 MiB (see README.md).
    return dict(os.environ, TMPDIR=str(run_dir), MALLOC_ARENA_MAX="1")


def run_workload(exe, workload, seed, seconds, trace):
    run_dir = target_dir() / "perfbench-run" / f"{workload}-s{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ops_text = gen.generate(workload, seed, seconds)
    ops_file = run_dir / "ops.txt"
    ops_file.write_text(ops_text)
    cmd = [str(exe), workload, "--ops", str(ops_file), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--state", str(run_dir)]
    events, status = run_child(cmd, BUDGET_S, child_env(run_dir))
    shutil.rmtree(run_dir, ignore_errors=True)
    refs = measure.load_refs(HERE / "refs", workload)
    summary = measure.summarize(workload, events, ops_text, refs, status, bool(trace))
    summary["digest"] = gen.digest(ops_text)
    return summary


def fmt(x):
    return f"{x:.6g}"


def report(workload, seed, seconds, trace, s):
    """Human-readable lines, all to stdout before the JSON result."""
    units = measure.UNITS
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace} "
          f"inputs={s['digest']}")
    print(f"  attempted {s['attempted']}, failed {s['failed']} "
          f"(failed_share {s['failed'] / s['attempted']:.4f}), "
          f"{'all answers checked correct' if s['correct'] else 'FAILED'}")
    for r in s["reasons"][:20]:
        print(f"  failure: {r}")
    pct = s["tail_pct"]
    tail_label = f"p{pct:.2f}" if pct is not None else "max (fewer than 11 samples)"
    for name, value in s["e2e"].items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  [{tail_label}, n={s['samples']}]"
        elif name.startswith("latency"):
            extra = f"  [n={s['samples']}]"
        elif name == "setup_s":
            extra = f"  [median of {s['setup_samples']}]"
        print(f"  {name:<18} {fmt(value):>12} {units[name]}{extra}")
    for line in s["info"]:
        print(line)
    if trace:
        for name, unit, _ in measure.PER_LAYER:
            print(f"  {name:<34} {fmt(s['layer'][name]):>12} {unit}")


def result_line(s, trace):
    if trace:
        metrics = {n: {"value": s["layer"][n], "unit": u} for n, u, _ in measure.PER_LAYER}
    else:
        metrics = {n: {"value": s["e2e"][n], "unit": u} for n, u in measure.END_TO_END}
    return json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                       "failed": s["failed"], "metrics": metrics})


def make_refs(exe):
    """Compute the reference answers through the executor's independent
    path and store them under perfbench/refs/."""
    for workload, keys in gen.REF_KEYS.items():
        run_dir = target_dir() / "perfbench-run" / f"refs-{workload}"
        run_dir.mkdir(parents=True, exist_ok=True)
        ops_file = run_dir / "ops.txt"
        ops_file.write_text("".join(f"ref {k}\n" for k in keys()))
        r = subprocess.run([str(exe), "refs", workload, "--ops", str(ops_file)],
                           cwd=ROOT, env=child_env(run_dir), capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit(f"perfbench: references for {workload} failed: {r.stderr}")
        refs = {}
        for line in r.stdout.splitlines():
            e = json.loads(line)
            refs[e["key"]] = e.get("peak_c", e.get("freq_ghz", e.get("steps")))
        (HERE / "refs" / f"{workload}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(refs)} references")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--make-refs", action="store_true")
    args = ap.parse_args()
    exe = build()
    if args.make_refs:
        make_refs(exe)
        return 0
    workloads = [args.workload] if args.workload else DEFAULT_WORKLOADS
    results = {}
    for w in workloads:
        s = run_workload(exe, w, args.seed, args.seconds, args.trace)
        report(w, args.seed, args.seconds, args.trace, s)
        results[w] = s
    if args.workload:
        print(result_line(results[args.workload], args.trace))
    else:
        out = target_dir() / "perfbench-report.json"
        out.write_text(json.dumps({w: json.loads(result_line(s, args.trace)) for w, s in results.items()},
                                  indent=1) + "\n")
        print(f"report written to {out}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
