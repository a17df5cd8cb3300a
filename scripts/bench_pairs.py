#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload six_node[,ring60,...] --seeds 201-210 --seconds 20 [--trace 0|1] \\
        [--json PATH]

Pair i runs `perfbench/run.py --seed S_i` once in each checkout, each in
its own interpreter, the parent first in even pairs and the change first
in odd ones, so a drift in host speed falls on both sides alike. Each
checkout runs its own benchmark code and program; the metric names,
units and which direction is better come from the change's
BENCHMARK.json. Given several workloads, it runs every pair of one
workload before the next and prints one table per workload.

For every metric it prints both sides' medians, the parent's quartiles
and their distance (IQR), the change's median over the parent's, the
pairs the change won (ties count for neither side) and a verdict:
`gain` when at least ten pairs ran, the change won at least nine in ten
of them and its median is better than the parent's by more than the
parent's IQR; `loss` when the parent did so; `-` otherwise. It also
reports whether each pair's CSV and theta digests were equal. With
--json it also writes what it prints to PATH: per workload, each pair's
seed, order, digest check and metrics, the count of pairs with equal
digests and of failed runs, and every metric's summary row. The exit
code is 1 if any run failed (non-zero exit or `"correct": false`), else
0.

Standard library only; the run output of every side is kept in memory and
printed only for a failed run.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = re.compile(r"^digest .* sim_seed=(\d+) .*csv_sha256=(\w+) theta_sha256=(\w+)$")


def parse_seeds(text: str) -> list[int]:
    """'201-210' or '5,7,9' (or a mix) as a list of seeds, in order. A
    range that runs downwards, or a seed given twice, is refused naming
    its part: either would silently change how many pairs count."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep:
            span = range(int(lo), int(hi) + 1)
            if not span:
                raise ValueError(f"part {part!r} runs downwards")
        else:
            span = [int(part)]
        for seed in span:
            if seed in seeds:
                raise ValueError(f"part {part!r} repeats seed {seed}")
            seeds.append(seed)
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def parse_run(stdout: str) -> tuple[dict, dict[int, tuple[str, str]]]:
    """(the final JSON report, {sim seed: (csv, theta digest)}) of one run."""
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    digests = {}
    for line in lines:
        m = DIGEST.match(line)
        if m:
            digests[int(m[1])] = (m[2], m[3])
    return report, digests


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in `checkout`: {ok, metrics, digests, output}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        report, digests = parse_run(proc.stdout)
    except json.JSONDecodeError:
        report, digests = {}, {}
    metrics = {k: v["value"] for k, v in report.get("metrics", {}).items()}
    return {
        "ok": proc.returncode == 0 and report.get("correct") is True,
        "metrics": metrics,
        "digests": digests,
        "output": proc.stdout + proc.stderr,
    }


def summarize(pairs: list[tuple[dict, dict]], specs: list[dict]) -> list[dict]:
    """One row per declared metric over (parent, change) metric dicts.

    A pair counts as a win when the change's value is better in the
    metric's declared direction, and as a tie when the two are equal.
    Quartiles are statistics.quantiles(n=4) of the parent's values, as
    perfbench prints them; with fewer than two pairs the IQR is 0.
    """
    rows = []
    for spec in specs:
        name = spec["name"]
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        higher = spec["better"] == "higher"
        wins = sum(c > p if higher else c < p for p, c in both)
        ties = sum(c == p for p, c in both)
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4)
        else:
            q1 = q3 = parent[0]
        p_med = statistics.median(parent)
        c_med = statistics.median(change)
        losses = len(both) - wins - ties
        gap = c_med - p_med if higher else p_med - c_med  # > 0: the change is better
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": p_med,
            "change_median": c_med,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_iqr": q3 - q1,
            "ratio": c_med / p_med if p_med else float("nan"),
            "wins": wins,
            "ties": ties,
            "pairs": len(both),
            "verdict": verdict(wins, losses, len(both), gap, q3 - q1),
        })
    return rows


def verdict(wins: int, losses: int, pairs: int, gap: float, iqr: float) -> str:
    """`gain`, `loss` or `-` by the rule in the module doc; `gap` is how
    much better the change's median is than the parent's."""
    if pairs >= 10:
        if wins * 10 >= pairs * 9 and gap > iqr:
            return "gain"
        if losses * 10 >= pairs * 9 and -gap > iqr:
            return "loss"
    return "-"


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':28s} {'parent':>12s} {'change':>12s} {'ratio':>7s} "
             f"{'parent q1':>12s} {'parent q3':>12s} {'IQR':>10s} {'verdict':>7s} "
             f"{'won':>7s}"]
    for r in rows:
        won = f"{r['wins']}/{r['pairs']}"
        lines.append(
            f"{r['name']:28s} {r['parent_median']:12.6g} {r['change_median']:12.6g} "
            f"{r['ratio']:7.4f} {r['parent_q1']:12.6g} {r['parent_q3']:12.6g} "
            f"{r['parent_iqr']:10.4g} {r['verdict']:>7s} {won:>7s}"
            + (f" ({r['ties']} tied)" if r["ties"] else "")
        )
    return "\n".join(lines)


def run_pairs(args, workload: str, seeds: list[int], specs: list[dict]) -> dict:
    """Run and print every pair of one workload; its summary, as --json
    writes it."""
    pairs = []
    shown_pairs = []
    failed = 0
    same = 0
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_side(getattr(args, side), workload, seed,
                                  args.seconds, args.trace)
            if not runs[side]["ok"]:
                failed += 1
                print(f"pair {i} seed {seed} {side} FAILED:\n{runs[side]['output']}")
        p, c = runs["parent"], runs["change"]
        equal = bool(p["digests"]) and p["digests"] == c["digests"]
        same += equal
        shown = " ".join(f"{k}={p['metrics'].get(k)!r}->{c['metrics'].get(k)!r}"
                         for k in (s["name"] for s in specs[:2]))
        print(f"pair {i} seed {seed} first={order[0]} digests "
              f"{'equal' if equal else 'DIFFER'} {shown}", flush=True)
        shown_pairs.append({"seed": seed, "first": order[0], "digests_equal": equal,
                            "parent": p["metrics"], "change": c["metrics"]})
        if p["ok"] and c["ok"]:
            pairs.append((p["metrics"], c["metrics"]))

    print(f"workload {workload} seeds {args.seeds} seconds {args.seconds} "
          f"trace {args.trace}: {len(pairs)} complete pairs, digests equal in "
          f"{same} of {len(seeds)}, {failed} failed runs")
    rows = summarize(pairs, specs)
    print(format_rows(rows), flush=True)
    return {"complete_pairs": len(pairs), "digests_equal": same, "failed_runs": failed,
            "pairs": shown_pairs, "metrics": rows}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True, help="one name or a comma-separated list")
    ap.add_argument("--seeds", required=True, help="e.g. 201-210 or 5,7,9")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="also write the summary to this file")
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        ap.error(f"--seeds: {e}")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = spec["per_layer" if args.trace else "end_to_end"]
    workloads = {w: run_pairs(args, w, seeds, specs) for w in args.workload.split(",")}
    if args.json:
        summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                   "workloads": workloads}
        args.json.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if any(w["failed_runs"] for w in workloads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
