"""Compare benchmark runs of two commits, or check one commit's spread.

    python3 benchmarks/perf/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/perf/compare.py --spread DIR [DIR2] [--json FILE]

Each DIR is an ``--out`` directory of ``run.py``; its ``runs.jsonl``
holds one record per workload run.  Untraced runs of one workload are
paired in the order they were made, so run the two commits in
alternation (parent first in even pairs, change first in odd ones).

Comparison prints one row per (end-to-end metric, workload):

* ``gain`` — at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither) and the medians differ by more than
  the parent's inter-quartile distance;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — a side's spread (inter-quartile distance over the
  median) exceeds the bound, so neither verdict can be read, unless
  every change run beats every parent run;
* ``no regression`` otherwise.

``--spread`` reports each metric's median, quartiles and spread over
one set of runs; with a second set it also checks that its median is
not worse than the first's by more than the bound, and reports the
tracing overhead when traced runs are present.  The exit status is 1
when any row fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchlib import (
    WORKLOADS,
    load_benchmark,
    quartiles,
    read_runs,
    relative_spread,
)

#: Pairs needed before a gain may be claimed, and the share to win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def values_by_key(records: List[Dict], trace: int = 0,
                  ) -> Dict[Tuple[str, str], List[float]]:
    """``(metric, workload) -> [value per run]`` of correct runs."""
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        if record["trace"] != trace or not record["correct"]:
            continue
        for name, value in record["metrics"].items():
            out[(name, record["workload"])].append(float(value))
    return out


def _worse(change: float, parent: float, better: str) -> float:
    """Relative worsening of ``change`` over ``parent`` (< 0 = better)."""
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: List[float], change: List[float], spec: Dict,
            ) -> Tuple[str, float, int, int]:
    """``(verdict, worsening, wins, pairs)`` of one row."""
    better, bound = spec["better"], spec["bound"]
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    worse = _worse(c_median, p_median, better)
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change)
               if _worse(c, p, better) < 0)
    gain = (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and worse < 0 and abs(c_median - p_median) > p_q3 - p_q1)
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    spread = max(relative_spread(parent), relative_spread(change))
    if gain:
        label = "gain"
    elif all_better:
        label = "no regression"
    elif spread > bound:
        label = "unresolved"
    elif worse > bound:
        label = "REGRESSION"
    else:
        label = "no regression"
    return label, worse, wins, pairs


def _fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_dir: Path, change_dir: Path, benchmark: Dict) -> int:
    parent = values_by_key(read_runs(parent_dir))
    change = values_by_key(read_runs(change_dir))
    failed = 0
    print(f"{'metric':<12} {'workload':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'worse':>8} {'wins':>6} "
          f"verdict")
    for spec in benchmark["end_to_end"]:
        for workload in WORKLOADS:
            key = (spec["name"], workload)
            if not parent.get(key) or not change.get(key):
                print(f"{spec['name']:<12} {workload:<14} (no runs)")
                continue
            label, worse, wins, pairs = verdict(parent[key], change[key],
                                                spec)
            failed += label == "REGRESSION"
            print(f"{spec['name']:<12} {workload:<14} "
                  f"{_fmt(parent[key]):<34} {_fmt(change[key]):<34} "
                  f"{100 * worse:>7.2f}% {wins:>2}/{pairs:<3} {label}")
    return 1 if failed else 0


def spread_rows(sets: List[List[Dict]], benchmark: Dict) -> Dict:
    """Per (metric, workload): quartiles and spread of every set."""
    rows: Dict[str, Dict] = {}
    by_set = [values_by_key(records) for records in sets]
    for spec in benchmark["end_to_end"]:
        for workload in WORKLOADS:
            key = (spec["name"], workload)
            entry = []
            for values in by_set:
                if values.get(key):
                    q1, median, q3 = quartiles(values[key])
                    entry.append({"runs": len(values[key]), "median": median,
                                  "q1": q1, "q3": q3,
                                  "spread": relative_spread(values[key])})
            if entry:
                rows[f"{spec['name']}@{workload}"] = {"sets": entry}
    return rows


def tracing_overhead(records: List[Dict]) -> Dict[str, float]:
    """Traced over untraced median pass cost, minus one."""
    untraced = values_by_key(records, trace=0)
    traced = values_by_key(records, trace=1)
    out = {}
    for workload in WORKLOADS:
        plain = untraced.get(("pass_cost", workload))
        with_trace = traced.get(("trace.pass_cost", workload))
        if plain and with_trace:
            out[workload] = (quartiles(with_trace)[1]
                             / quartiles(plain)[1] - 1.0)
    return out


def check_spread(dirs: List[Path], benchmark: Dict,
                 json_out: Optional[Path]) -> int:
    sets = [read_runs(directory) for directory in dirs]
    rows = spread_rows(sets, benchmark)
    specs = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    failed = 0
    for label, row in rows.items():
        name = label.split("@")[0]
        spec = specs[name]
        notes, fail = [], False
        for i, entry in enumerate(row["sets"]):
            # set-up time is exempt from the spread rule, not the drift one
            if name == "setup_s":
                continue
            if entry["spread"] > spec["bound"]:
                notes.append(f"FAIL set {i + 1} spread above bound")
                fail = True
            elif entry["spread"] > spec["bound"] / 3:
                notes.append(f"set {i + 1} spread above bound/3")
        if len(row["sets"]) == 2:
            first, second = row["sets"]
            row["second_worse"] = _worse(second["median"], first["median"],
                                         spec["better"])
            if row["second_worse"] > spec["bound"]:
                notes.append("FAIL second median worse by more than bound")
                fail = True
        failed += fail
        cells = "  ".join(
            f"{e['median']:.6g} [{e['q1']:.6g}, {e['q3']:.6g}] "
            f"spread {100 * e['spread']:.2f}% (n={e['runs']})"
            for e in row["sets"])
        print(f"{label:<28} bound {100 * spec['bound']:>4.0f}%  {cells}  "
              f"{'; '.join(notes) or 'ok'}")
    overhead = tracing_overhead([r for records in sets for r in records])
    for workload, share in overhead.items():
        print(f"tracing overhead {workload:<14} {100 * share:+.2f}%")
    if json_out is not None:
        results = dirs[0] / "results.json"
        measured_on = (json.loads(results.read_text())["provenance"]
                       if results.is_file() else None)
        json_out.write_text(json.dumps(
            {"measured_on": measured_on, "rows": rows,
             "tracing_overhead": overhead}, indent=1) + "\n")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="compare.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", type=Path,
                        help="PARENT_DIR CHANGE_DIR, or the --spread sets")
    parser.add_argument("--spread", action="store_true",
                        help="check the spread of one or two run sets")
    parser.add_argument("--json", type=Path,
                        help="with --spread: also write the rows here")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.spread:
        if len(args.dirs) > 2:
            parser.error("--spread takes one or two directories")
        return check_spread(args.dirs, benchmark, args.json)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    return compare(args.dirs[0], args.dirs[1], benchmark)


if __name__ == "__main__":
    sys.exit(main())
