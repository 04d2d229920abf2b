"""The connected non-isomorphic graph census and its granularity profile.

Enumerates one representative per isomorphism class for n = 1..6 (the
counts follow the sequence 1, 1, 2, 6, 21, 112), then measures how well
each centrality distinguishes vertices across the n=6 classes: the
percentage of distinct 6-decimal values, and how often each measure
achieves the best distinct count (ties award every winner, so the
percentages sum above 100).
"""

import numpy as np

from graphbench import (
    best_granularity_tally,
    distinct_count,
    enumerate_connected_nonisomorphic,
    format_graph6,
    granularity,
)
from graphbench.centrality import MEASURES, SHORT_LABELS, measure_stack

for n in range(1, 7):
    graphs = enumerate_connected_nonisomorphic(n)
    sample = " ".join(format_graph6(g) for g in graphs[:5])
    print(f"n={n}: {len(graphs):3d} classes   first records: {sample}")

print("\ngranularity over the 112 six-vertex classes:")
# Each measure scores the whole census in one call, one row per class.
census = enumerate_connected_nonisomorphic(6)
scores = {m: measure_stack(census, m) for m in MEASURES}
percent = {m: [granularity(row) for row in scores[m]] for m in MEASURES}
counts = [{m: distinct_count(scores[m][i]) for m in MEASURES} for i in range(len(census))]

best = best_granularity_tally(counts)
print(f"{'metric':20s} {'mean % distinct':>16s} {'% of graphs best':>18s}")
for m in MEASURES:
    print(f"{SHORT_LABELS[m]:4s} {m:15s} {np.mean(percent[m]):16.2f} {best[m]:18.1f}")
print(f"(best column sums to {sum(best.values()):.1f}%, ties are frequent)")
