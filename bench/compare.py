"""Compare a change against its parent commit on every workload and end-to-end metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py --load FILE

PARENT_DIR and CHANGE_DIR are source checkouts of the two commits.  For every
workload in BENCHMARK.json, pair i of ``PAIRS`` runs ``bench/run.py --seed
SEED0+i`` in both for ``run_seconds``, alternating which side runs first.
Every run's result line is written to ``.bench_work/compare.jsonl`` (JSON
lines), which ``--load`` reads back without running anything.

One row per workload and metric, by the rule of alternating pairs:

* worse (correctness)  the change has more failed operations than the parent;
* improved   the change wins at least 9 of every 10 pairs (ties count for
             neither) and the medians differ, in its favour, by more than the
             parent's interquartile spread;
* worse      the change's median is worse than the parent's by more than the
             metric's bound in BENCHMARK.json;
* unresolved the parent's own spread is wider than the bound, and not every
             change run beats every parent run;
* no worse   otherwise.

A run whose result says ``correct`` false is reported in a warning line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_work" / "compare.jsonl"
PAIRS = 10
SEED0 = 1


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: tuple[int, int]) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric; lists are paired by index,
    ``failed`` is the failed operations of (parent, change) over all pairs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if failed[1] > failed[0]:
        return "worse (correctness)", wins
    if wins * 10 >= 9 * len(parent) and sign * (cm - pm) > q3 - q1:
        return "improved", wins
    if (q3 - q1) > bound * abs(pm):
        every = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("no worse" if every else "unresolved"), wins
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins
    return "no worse", wins


def run_pairs(parent: Path, change: Path, workloads: list[str], seconds: int) -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    with OUT.open("w", encoding="utf-8") as fh:
        for workload in workloads:
            for i in range(PAIRS):
                sides = [("parent", parent), ("change", change)]
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED0 + i),
                            "--seconds", str(seconds), "--trace", "0"]
                    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
                    if proc.returncode != 0:
                        raise SystemExit(f"{side} {workload} pair {i} failed:\n{proc.stderr}")
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    row = {"side": side, "workload": workload, "pair": i, "seed": SEED0 + i, "result": result}
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    print(f"{workload} pair {i} {side}: correct={result['correct']}"
                          f" failed={result['failed']}/{result['attempted']}", file=sys.stderr)


def report(rows: list[dict], spec: dict) -> list[str]:
    runs: dict[tuple[str, str, int], dict] = {}
    for row in rows:
        runs[(row["workload"], row["side"], row["pair"])] = row["result"]
    lines = [f"{'workload':<8} {'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
             f" {'change/parent':<28} {'wins':<6} verdict"]
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = sorted(p for (w, side, p) in runs if w == workload and side == "parent"
                       and (w, "change", p) in runs)
        if len(pairs) < PAIRS:
            lines.append(f"{workload:<8} only {len(pairs)} of {PAIRS} pairs: no verdict")
            continue
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            p = [runs[(workload, "parent", i)]["metrics"][name]["value"] for i in pairs]
            c = [runs[(workload, "change", i)]["metrics"][name]["value"] for i in pairs]
            failed = tuple(sum(runs[(workload, side, i)]["failed"] for i in pairs)
                           for side in ("parent", "change"))
            call, wins = verdict(p, c, metric["better"], metric["bound"], failed)

            def summary(xs):
                q1, _, q3 = statistics.quantiles(xs, n=4)
                return f"{statistics.median(xs):.4g} [{q1:.4g}, {q3:.4g}] {unit}"

            pm = statistics.median(p)
            ratio = f"{statistics.median(c) / pm:.3f} of {pm:.4g} {unit}"
            note = f" (failed operations: parent {failed[0]}, change {failed[1]})" if any(failed) else ""
            lines.append(f"{workload:<8} {name:<12} {summary(p):<34} {summary(c):<34} {ratio:<28}"
                         f" {wins}/{len(pairs):<4} {call}{note}")
    for (workload, side, i), result in sorted(runs.items()):
        if not result["correct"]:
            lines.append(f"WARNING {workload} pair {i} {side}: correct is false"
                         f" ({result['failed']} of {result['attempted']} operations failed)")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--load", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.load is None:
        if args.parent is None or args.change is None:
            ap.error("give PARENT_DIR and CHANGE_DIR, or --load FILE")
        run_pairs(args.parent.resolve(), args.change.resolve(), [w["name"] for w in spec["workloads"]],
                  spec["run_seconds"])
        args.load = OUT
    rows = [json.loads(line) for line in args.load.read_text(encoding="utf-8").splitlines() if line]
    print("\n".join(report(rows, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
