"""Compare two result sets of end-to-end metrics, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the ``--trace 0`` records that ``run.py`` writes (one
JSON file per run).  Runs are paired by seed.  For every workload and
end-to-end metric of ``BENCHMARK.json`` the table gives each side's median
and quartiles, the spread ((Q3 - Q1) / median), the change of the median and
the change's win fraction over the pairs (ties count for neither side).

Verdicts follow the rule for noisy shared machines: ``gain`` needs at least nine
tenths of the pairs won and a median difference larger than the base's
quartile distance; ``regression`` is a median worse by more than the
metric's bound; ``unresolved`` is a base spread wider than the bound, unless
every change run beats every base run; otherwise ``within bound``.  Two sets
of the same code should read ``within bound`` everywhere.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict:
    """{workload: {seed: {metric: value}}} of the untraced records in ``directory``."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(record, dict) or record.get("trace") != 0:
            continue
        values = {name: m["value"] for name, m in record["metrics"].items()}
        out.setdefault(record["workload"], {})[record["seed"]] = values
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(base: list, change: list, pairs: list, better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) < 0 is a win
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (cmed - bmed) / bmed
    spread = (b3 - b1) / bmed
    if win_fraction >= 0.9 and sign * (bmed - cmed) > b3 - b1:
        verdict = "gain"
    elif spread > bound:
        all_better = all(sign * (c - b) < 0 for c in change for b in base)
        verdict = "better in every run" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "base": (bmed, b1, b3),
        "change": (cmed, c1, c3),
        "base_spread": spread,
        "change_spread": (c3 - c1) / cmed,
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(pairs),
        "win_fraction": win_fraction,
        "verdict": verdict,
    }


def compare_sets(base_dir: Path, change_dir: Path) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_set(base_dir), load_set(change_dir)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = base.get(workload, {}), change.get(workload, {})
        if not a or not b:
            rows.append({"workload": workload, "missing": True})
            continue
        seeds = sorted(set(a) & set(b))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare_metric(
                [a[s][name] for s in sorted(a)],
                [b[s][name] for s in sorted(b)],
                [(a[s][name], b[s][name]) for s in seeds],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"],
                       runs=(len(a), len(b)))
            rows.append(row)
    return rows


def format_rows(rows) -> str:
    head = ("| workload | metric | base median [Q1, Q3] | change median [Q1, Q3] | "
            "base spread | change spread | worse by | bound | wins | verdict |")
    lines = [head, "|" + "---|" * 10]
    for r in rows:
        if r.get("missing"):
            lines.append(f"| {r['workload']} | - | missing in one set | | | | | | | |")
            continue
        fmt = "{:.4g} [{:.4g}, {:.4g}]"
        lines.append(
            f"| {r['workload']} | {r['metric']} ({r['unit']}) | {fmt.format(*r['base'])} | "
            f"{fmt.format(*r['change'])} | {r['base_spread']:.2%} | {r['change_spread']:.2%} | "
            f"{r['worse_by']:+.2%} | {r['bound']:.0%} | {r['wins']}/{r['pairs']} | {r['verdict']} |"
        )
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(format_rows(compare_sets(Path(argv[0]), Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
