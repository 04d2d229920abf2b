"""A miniature end-to-end experiment: plan, run, tables, heatmap.

A scaled-down grid (three cells, five samples each) runs in a few
seconds and exercises the whole pipeline: seeded generation with
connectivity retries, all eight measures, per-pair Kendall tau-b,
distinct-value counts, JSON persistence, roll-up CSVs, and the SVG
heatmap. Outputs land in ./out_mini.
"""

from pathlib import Path

from graphbench import (
    correlation_matrix,
    emit_heatmap,
    plan_experiments,
    run_experiment,
)

TABLES = (
    ("pooled correlation table (lower triangle, mean tau-b)", "correlation.csv"),
    ("granularity by corpus group", "granularity.csv"),
    ("best-granularity share by model family", "best.csv"),
)

config = {
    "models": [
        {"model": "er", "n": [60], "p": [0.2]},
        {"model": "sf", "n": [60], "k": [2]},
        {"model": "sw", "n": [60], "k": [4], "p": [0.1]},
    ],
    "samples_per_cell": 5,
    "base_seed": 7,
    "output_dir": "out_mini",
}


def main():
    plan = plan_experiments(config)
    print(f"plan: {len(plan.cells)} cells, {plan.total_samples} networks")
    results = run_experiment(plan, workers=2)
    failures = [r for r in results if r.error is not None]
    print(f"ran {len(results)} samples, {len(failures)} failures")

    out_dir = Path(plan.output_dir)
    for title, name in TABLES:
        print(f"\n{title} ({name}):")
        print((out_dir / name).read_text(), end="")

    svg = emit_heatmap(correlation_matrix(results), out_dir / "heatmap.svg")
    print(f"\nheatmap written to {svg}")
    print("persisted artifacts:", sorted(p.name for p in out_dir.iterdir()))


if __name__ == "__main__":
    # The worker pool uses the spawn start method, which re-imports this
    # module in each child; the guard keeps children from re-running it.
    main()
