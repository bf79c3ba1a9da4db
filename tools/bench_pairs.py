"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python tools/bench_pairs.py PARENT_CHECKOUT --out BENCH_<n>.json \\
        [--pairs wafer-mc=10,design=3,metrology=3]

PARENT_CHECKOUT is another checkout of the repository, the one the change
is measured against; the change is the checkout that holds this script.
For each workload, pair k runs ``perfbench/run.py --trace 0`` once from
the root of each checkout, both at seed k + 1 and for BENCHMARK.json's
``run_seconds``; the parent runs first in even pairs and the change first
in odd ones, so neither side always meets the host in the same state.
Runs are sequential.

The harness prints one JSON object as its last line of standard output;
each run's object, or its exit code when it printed none, is kept in the
file's ``runs``.  ``summary`` gives, per workload and end-to-end metric of
BENCHMARK.json, over the runs that exited 0:

* each side's median and quartiles (``q1``, ``q3``) and its relative
  spread, the distance between the quartiles over the median;
* the pairs the change won and lost (a tie counts for neither side; the
  direction is the metric's ``better`` in BENCHMARK.json);
* ``worse_frac``, how much worse the change's median is than the parent's,
  as a fraction of it (negative when better);
* a verdict: ``unresolved`` when either side's spread exceeds the
  metric's bound, unless every change run beats every parent run; else
  ``worse`` when ``worse_frac`` exceeds the bound; else ``better`` when
  the change failed no more ops than the parent and either every change
  run beats every parent run, or the change won at least 9 in 10 of at
  least 10 pairs and its median is better by more than the parent's
  quartile distance; else ``no change``.

It also gives each side's attempted and failed ops and the failed runs,
with their exit codes.  ``machine`` records the core count, Python and
numpy versions and ``PYTHONDONTWRITEBYTECODE``; ``sides`` each checkout's
commit and ``src`` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
DEFAULT_PAIRS = "wafer-mc=10,design=3,metrology=3"
GAIN_SHARE = 0.9        # the share of pairs a gain must win,
GAIN_PAIRS = 10         # of at least this many pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of values, by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of runs (dicts with workload, pair, side, exit, and, from
    the harness's last line, attempted, failed and metrics) per workload and
    metric of end_to_end (BENCHMARK.json's entries)."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        ops = {side: {"attempted": sum(run.get("attempted", 0) for run in mine
                                       if run["side"] == side),
                      "failed": sum(run.get("failed", 0) for run in mine if run["side"] == side)}
               for side in SIDES}
        entry: dict = {"ops": ops, "failed_runs": [
            {key: run[key] for key in ("side", "pair", "seed", "exit")}
            for run in mine if run["exit"] != 0 or "metrics" not in run]}
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: {run["pair"]: run["metrics"][name]["value"] for run in mine
                             if run["side"] == side and run["exit"] == 0
                             and name in run.get("metrics", {})}
                      for side in SIDES}
            if not (values["parent"] and values["change"]):
                entry[name] = {"verdict": "unresolved", "reason": "a side has no value"}
                continue
            stats = {}
            for side in SIDES:
                q1, median, q3 = quartiles(sorted(values[side].values()))
                stats[side] = {"median": median, "q1": q1, "q3": q3, "n": len(values[side]),
                               "spread": (q3 - q1) / abs(median) if median else 0.0}
            both = sorted(set(values["parent"]) & set(values["change"]))
            gains = [sign * (values["change"][k] - values["parent"][k]) for k in both]
            won, lost = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
            parent, change = stats["parent"], stats["change"]
            gain = sign * (change["median"] - parent["median"])
            worse = -gain / abs(parent["median"]) if parent["median"] else 0.0
            apart = (min(sign * v for v in values["change"].values())
                     > max(sign * v for v in values["parent"].values()))
            if max(parent["spread"], change["spread"]) > metric["bound"] and not apart:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse"
            elif ops["change"]["failed"] <= ops["parent"]["failed"] and (apart or (
                    len(both) >= GAIN_PAIRS and won >= GAIN_SHARE * len(both)
                    and gain > parent["q3"] - parent["q1"])):
                verdict = "better"
            else:
                verdict = "no change"
            entry[name] = {**stats, "pairs": len(both), "change_won": won,
                           "change_lost": lost, "worse_frac": worse,
                           "bound": metric["bound"], "verdict": verdict}
        summary[workload] = entry
    return summary


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((checkout / "src" / "jjshadow").glob("*.py")))


def commit(checkout: Path) -> str | None:
    """checkout's HEAD commit, with "+changes" when its tracked files differ from it."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return None
    dirty = subprocess.run(git + ["diff", "--quiet", "HEAD"]).returncode
    return head.stdout.strip() + ("+changes" if dirty else "")


def machine() -> dict:
    import numpy

    return {"cores": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced harness run from checkout's root: its exit code and, if
    its last line of output is a JSON object, that object's fields."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    out: dict = {"exit": done.returncode}
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if isinstance(last, dict):
        out.update({key: last[key] for key in ("attempted", "failed", "metrics") if key in last})
    if done.returncode:
        out["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return out


def parse_pairs(text: str) -> dict[str, int]:
    pairs = {}
    for item in text.split(","):
        workload, _, count = item.partition("=")
        pairs[workload.strip()] = int(count)
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="the parent checkout's root")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", default=DEFAULT_PAIRS,
                        help=f"workload=count,... (default {DEFAULT_PAIRS})")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload, count in parse_pairs(args.pairs).items():
        for pair in range(count):
            seed = pair + 1
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(checkouts[side], workload, seed, spec["run_seconds"])
                runs.append({"workload": workload, "pair": pair, "side": side,
                             "seed": seed, **result})
                print(f"{workload} pair {pair} {side}: exit {result['exit']}", file=sys.stderr)
    record = {"machine": machine(), "seconds": spec["run_seconds"],
              "sides": {side: {"commit": commit(path), "src_lines": src_lines(path)}
                        for side, path in checkouts.items()},
              "summary": summarize(runs, spec["end_to_end"]), "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, entry in record["summary"].items():
        for metric in spec["end_to_end"]:
            s = entry[metric["name"]]
            if "parent" in s:
                print(f"{workload:<10} {metric['name']:<13} {s['parent']['median']:>12.6g} -> "
                      f"{s['change']['median']:<12.6g} won {s['change_won']}/{s['pairs']}  "
                      f"{s['verdict']}")
            else:
                print(f"{workload:<10} {metric['name']:<13} {s['verdict']}: {s['reason']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
