"""Compare benchmark records (``run.py --out``) of a baseline and a change.

Usage::

    python perfbench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...
    python perfbench/compare.py A.json B.json        # one record per side

Each record is one run. A run's value for a metric is the headline the
run reported (the median over its passes, or the metric's percentile).
For every workload and metric one row gives each side's median and
quartiles over its runs, the change's wins over runs paired by index
(ties count for neither), the spread between the baseline's own runs
(interquartile distance over median) and a label, following the
choosing-metrics rules for a small sandbox:

* ``improved``   — the change wins at least nine tenths of the pairs
  and the medians differ by more than the baseline runs' interquartile
  distance;
* ``unresolved`` — the baseline runs' spread is wider than the metric's
  bound, or unknown because there is one baseline run, and not every
  change run beats every baseline run;
* ``regressed``  — the change's median is worse by more than the bound;
* ``no worse``   — otherwise.

Run ten or more runs per side, alternating which side runs first. Any
change in verdicts or in ``failed_frac`` is flagged. Exits 1 when
anything regressed or a verdict changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import stats


def label(base: list, change: list, bound: float) -> dict:
    """Compare one metric's run values; lower is better for every
    end-to-end metric."""
    va, vb = statistics.median(base), statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(y < x for x, y in pairs)
    spread = stats.spread(base) if len(base) > 1 else None
    all_better = max(change) < min(base)
    if spread is not None and wins >= 0.9 * len(pairs) and va - vb > spread * va:
        verdict = "improved"
    elif (spread is None or spread > bound) and not all_better:
        verdict = "unresolved"
    elif vb > va * (1 + bound):
        verdict = "regressed"
    else:
        verdict = "no worse"
    return {"base": va, "change": vb, "wins": wins, "pairs": len(pairs),
            "spread": spread, "label": verdict}


def _values(records: list, workload: str, metric: str) -> list:
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in records
            if metric in r["workloads"].get(workload, {}).get("metrics", {})]


def _failed_frac(runs: list) -> float:
    attempted = sum(w["attempted"] for w in runs)
    return sum(w["failed"] for w in runs) / attempted if attempted else 0.0


def _verdicts(runs: list, fn: str) -> list:
    """The distinct verdicts a side's runs gave ``fn``."""
    return sorted({json.dumps(w["verdicts"].get(fn), sort_keys=True) for w in runs})


def compare(base: list, change: list) -> tuple[list[str], bool]:
    """Rendered rows, and whether anything regressed or a verdict changed."""
    bad = False
    lines = [f"{'workload':13s} {'metric':17s} {'unit':5s} {'base [q1, q3]':>30s} "
             f"{'change [q1, q3]':>30s} {'delta':>8s} {'wins':>8s} {'spread':>7s} label"]
    for name, first in base[0]["workloads"].items():
        wa = [r["workloads"][name] for r in base if name in r["workloads"]]
        wb = [r["workloads"][name] for r in change if name in r["workloads"]]
        if not wb:
            lines.append(f"{name:13s} (missing from the change records)")
            continue
        for metric, m in first["metrics"].items():
            a, b = _values(base, name, metric), _values(change, name, metric)
            if not b:
                continue
            r = label(a, b, m["bound"])
            bad |= r["label"] == "regressed"
            qa, qb = stats.quartiles(a), stats.quartiles(b)
            delta = (r["change"] - r["base"]) / r["base"] if r["base"] else 0.0
            spread = "-" if r["spread"] is None else f"{r['spread']:.1%}"
            lines.append(
                f"{name:13s} {metric:17s} {m['unit']:5s} "
                f"{r['base']:10.5g} [{qa[0]:8.5g}, {qa[1]:8.5g}] "
                f"{r['change']:10.5g} [{qb[0]:8.5g}, {qb[1]:8.5g}] "
                f"{delta:+8.1%} {r['wins']:>3d}/{r['pairs']:<4d} {spread:>7s} {r['label']}"
            )
        fa, fb = _failed_frac(wa), _failed_frac(wb)
        if fa != fb:
            bad |= fb > fa
            lines.append(f"{name:13s} failed_frac changed: {fa:.4g} -> {fb:.4g}")
        fns = set().union(*(w["verdicts"] for w in wa + wb))
        for fn in sorted(fns):
            va, vb = _verdicts(wa, fn), _verdicts(wb, fn)
            if va != vb:
                bad = True
                lines.append(f"{name:13s} VERDICT CHANGED {fn}: {' | '.join(va)} -> "
                             f"{' | '.join(vb)}")
    return lines, bad


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("records", nargs="*", help="BASE.json CHANGE.json")
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    args = ap.parse_args(argv)
    if args.records:
        if len(args.records) != 2 or args.base or args.change:
            ap.error("give either BASE.json CHANGE.json or --base ... --change ...")
        args.base, args.change = args.records[:1], args.records[1:]
    if not args.base or not args.change:
        ap.error("give either BASE.json CHANGE.json or --base ... --change ...")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = []
    for paths in (args.base, args.change):
        records = []
        for path in paths:
            with open(path) as fh:
                records.append(json.load(fh))
        sides.append(records)
    lines, bad = compare(*sides)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
