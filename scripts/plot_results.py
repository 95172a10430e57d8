#!/usr/bin/env python3
"""Render ASCII charts from the bench CSVs in results/.

No third-party dependencies — works offline right after a bench sweep:

    python3 scripts/plot_results.py                # everything found
    python3 scripts/plot_results.py fig9 fig10     # by substring
"""
import csv
import pathlib
import sys

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
WIDTH = 48


def bar(value: float, peak: float) -> str:
    if peak <= 0:
        return ""
    n = max(0, round(value / peak * WIDTH))
    return "#" * n


def load(path: pathlib.Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def numeric(rows, column):
    out = []
    for row in rows:
        try:
            out.append(float(row[column]))
        except (KeyError, ValueError):
            out.append(0.0)
    return out


def plot_speedup_table(rows, label_cols, value_col, title):
    values = numeric(rows, value_col)
    peak = max(values, default=0.0)
    print(f"\n== {title} ({value_col}) ==")
    for row, value in zip(rows, values):
        label = " ".join(str(row.get(c, "")) for c in label_cols)
        print(f"  {label:<32} {value:>10.2f} |{bar(value, peak)}")


def plot_cdf(rows, title):
    print(f"\n== {title} ==")
    bal = numeric(rows, "balanced_ms")
    unb = numeric(rows, "unbalanced_ms")
    peak = max(bal + unb, default=0.0)
    for row, b, u in zip(rows, bal, unb):
        pct = row.get("cdf_percent", "?")
        print(f"  {pct:>3}%  bal {b:>9.3f} |{bar(b, peak)}")
        print(f"        unb {u:>9.3f} |{bar(u, peak)}")


HANDLERS = {
    "fig7_overall_speedup": (["dataset", "algorithm"], "speedup"),
    "fig8_table6_large_queries": (["algorithm", "query_size"], "speedup"),
    "fig9_scalability": (["algorithm", "threads"], "speedup"),
    "fig11_inter_update": (["algorithm"], "speedup"),
    "fig4_table3": (["algorithm", "query_size"], "mean_ms"),
    "table4_safe_ratio": (["dataset", "query_size"], "unsafe_percent"),
    "fig12_filtering": (["algorithm"], "label_degree_percent"),
    "theory_model": (["algorithm"], "measured"),
    "ablation_split_depth": (["split_depth"], "makespan_ms"),
    "ablation_batch_size": (["batch_k", "mode"], "makespan_ms"),
    "baseline_recompute": (["algorithm"], "mean_ms"),
    "latency_profile": (["metric"], "sequential_us"),
    "tree_queries": (["algorithm"], "mean_ms"),
    "mixed_stream": (["algorithm"], "speedup"),
}


def main() -> int:
    if not RESULTS.is_dir():
        print(f"no results directory at {RESULTS}; run the benches first",
              file=sys.stderr)
        return 1
    wanted = sys.argv[1:]
    shown = 0
    for path in sorted(RESULTS.glob("*.csv")):
        name = path.stem
        if wanted and not any(w in name for w in wanted):
            continue
        rows = load(path)
        if not rows:
            continue
        if name == "fig10_load_balance":
            plot_cdf(rows, name)
        elif name in HANDLERS:
            labels, value = HANDLERS[name]
            plot_speedup_table(rows, labels, value, name)
        else:
            print(f"\n== {name} == ({len(rows)} rows, no chart handler)")
        shown += 1
    if shown == 0:
        print("nothing matched", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
