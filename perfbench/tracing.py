"""Outside-in tracing: wrap public functions at the names the harness
calls them through and record one span per call.

A span is ``(name, parent, start, end, self_s, ok)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``self_s`` the duration
minus the time covered by wrapped calls made from inside it, and ``ok``
false when the call raised. Spans are kept in memory and rolled up when
the traced pass ends.

A target that no longer exists (after a refactor renames or removes it)
is reported as absent, and every metric derived from it reads ``None``,
never 0.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# key -> (module, attribute path, span name). A span name of None means
# the name is taken from the call (one span name per measure).
TARGETS = {
    "run_experiment": ("graphbench.harness", "run_experiment", "harness.run_experiment"),
    "ensure_connected": ("graphbench.harness", "ensure_connected", "generators.ensure_connected"),
    "generate": ("graphbench.generators", "generate", "generators.generate"),
    "is_connected_retry": ("graphbench.generators", "is_connected", "graphs.is_connected_retry"),
    "graph_init": ("graphbench.graphs", "Graph.__init__", "graphs.graph_init"),
    "census": ("graphbench.harness", "enumerate_connected_nonisomorphic", "generators.census"),
    "parse_graph6": ("graphbench.harness", "parse_graph6", "graphs.parse_graph6"),
    "compute_measure": ("graphbench.harness", "compute_measure", None),
    "is_connected_guard": ("graphbench.centrality", "is_connected", "graphs.is_connected_guard"),
    "bfs_all_pairs": ("graphbench.centrality", "bfs_all_pairs", "graphs.bfs_all_pairs"),
    "invert": ("graphbench.centrality", "invert", "linalg.invert"),
    "sym_eigen": ("graphbench.centrality", "sym_eigen", "linalg.sym_eigen"),
    "kendall_tau_b": ("graphbench.stats", "kendall_tau_b", "stats.kendall_tau_b"),
    "distinct_count": ("graphbench.stats", "distinct_count", "stats.distinct_count"),
    "write_all_tables": ("graphbench.harness", "write_all_tables", "harness.write_all_tables"),
    "load_results": ("graphbench.harness", "load_results", "harness.load_results"),
}

MEASURES = (
    "betweenness", "closeness", "degree", "eccentricity",
    "eigenvector", "information", "subgraph", "walk_betweenness",
)


def _measure_span(args, kwargs) -> str:
    measure = kwargs["measure"] if "measure" in kwargs else args[1]
    return f"centrality.{measure}"


class Tracer:
    """Installs wrappers on :data:`TARGETS` and records their spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def _wrap(self, func, span_name):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = span_name if span_name is not None else _measure_span(args, kwargs)
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, parent, start, end, duration - frame[1], ok)

        return wrapper

    def install(self) -> None:
        for key, (module_name, path, span_name) in TARGETS.items():
            holder = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    holder = getattr(holder, part)
                original = getattr(holder, attr)
            except AttributeError:
                self.absent.append(key)
                continue
            setattr(holder, attr, self._wrap(original, span_name))
            self._installed.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    def reset(self) -> None:
        self.spans.clear()

    def rollup(self) -> dict:
        """Span name -> {calls, total_s, self_s}."""
        agg: dict[str, dict] = {}
        for name, _, start, end, self_s, _ in self.spans:
            entry = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return agg

    def retry_path(self) -> dict:
        """Accepted samples and time spent in attempts that were thrown away.

        An ``ensure_connected`` call that returns keeps only its last
        attempt, which starts where its last ``generate`` call starts;
        everything before that was wasted. A call that raises wasted all
        of its time.
        """
        last_generate: dict[int, float] = {}
        for name, parent, start, *_ in self.spans:
            if name == "generators.generate" and parent >= 0:
                last_generate[parent] = max(start, last_generate.get(parent, start))
        accepted, failed_s = 0, 0.0
        for index, (name, _, start, end, _, ok) in enumerate(self.spans):
            if name != "generators.ensure_connected":
                continue
            if ok:
                accepted += 1
                failed_s += last_generate.get(index, start) - start
            else:
                failed_s += end - start
        return {"accepted": accepted, "failed_attempt_s": failed_s}

    def hit(self) -> dict[str, bool]:
        """Target key -> whether any span was recorded for it."""
        names = {span[0] for span in self.spans}
        out = {}
        for key, (_, _, span_name) in TARGETS.items():
            if key in self.absent:
                continue
            if span_name is None:
                out[key] = any(name.startswith("centrality.") for name in names)
            else:
                out[key] = span_name in names
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    pass_agg: dict,
    reload_agg: dict,
    retry: dict,
    measured_samples: int,
    generated_samples: int,
    records_written: int,
    bytes_written: int,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict:
    """Per-layer metrics of one traced pass; ``None`` where a target is absent.

    ``measured_samples`` counts the samples whose measures ran and
    ``generated_samples`` those drawn through the connectivity retry.
    Ratios with a zero denominator read 0.
    """

    def calls(name):
        return pass_agg.get(name, {}).get("calls", 0)

    def self_s(name, agg=pass_agg):
        return agg.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return pass_agg.get(name, {}).get("total_s", 0.0)

    attempts = calls("generators.generate")
    retry_calls = calls("graphs.is_connected_retry")
    guard_calls = calls("graphs.is_connected_guard")
    values = {
        "generators.attempts": (attempts, ["generate"]),
        "generators.accept_ratio": (_ratio(retry["accepted"], attempts), ["generate", "ensure_connected"]),
        "generators.attempts_per_sample": (_ratio(attempts, generated_samples), ["generate"]),
        "generators.generate_s": (self_s("generators.generate"), ["generate", "graph_init"]),
        "generators.failed_attempt_s": (retry["failed_attempt_s"], ["generate", "ensure_connected"]),
        "generators.retry_share_pct": (
            100.0 * _ratio(total_s("generators.ensure_connected"), traced_wall_s),
            ["ensure_connected"],
        ),
        "generators.census_s": (self_s("generators.census"), ["census", "graph_init"]),
        "graphs.graph_init_calls": (calls("graphs.graph_init"), ["graph_init"]),
        "graphs.graph_init_s": (self_s("graphs.graph_init"), ["graph_init"]),
        "graphs.is_connected_calls": (
            retry_calls + guard_calls, ["is_connected_retry", "is_connected_guard"],
        ),
        "graphs.is_connected_s": (
            self_s("graphs.is_connected_retry") + self_s("graphs.is_connected_guard"),
            ["is_connected_retry", "is_connected_guard"],
        ),
        "graphs.is_connected_retry_calls": (retry_calls, ["is_connected_retry"]),
        "graphs.is_connected_retry_s": (self_s("graphs.is_connected_retry"), ["is_connected_retry"]),
        "graphs.is_connected_retry_per_attempt": (
            _ratio(retry_calls, attempts), ["is_connected_retry", "generate"],
        ),
        "graphs.is_connected_guard_calls": (guard_calls, ["is_connected_guard"]),
        "graphs.is_connected_guard_s": (self_s("graphs.is_connected_guard"), ["is_connected_guard"]),
        "graphs.is_connected_guard_per_sample": (
            _ratio(guard_calls, measured_samples), ["is_connected_guard"],
        ),
        "graphs.bfs_all_pairs_calls": (calls("graphs.bfs_all_pairs"), ["bfs_all_pairs"]),
        "graphs.bfs_all_pairs_s": (self_s("graphs.bfs_all_pairs"), ["bfs_all_pairs"]),
        "graphs.bfs_all_pairs_per_sample": (
            _ratio(calls("graphs.bfs_all_pairs"), measured_samples), ["bfs_all_pairs"],
        ),
        "graphs.parse_graph6_s": (self_s("graphs.parse_graph6"), ["parse_graph6", "graph_init"]),
        "linalg.invert_calls": (calls("linalg.invert"), ["invert"]),
        "linalg.invert_s": (self_s("linalg.invert"), ["invert"]),
        "linalg.invert_per_sample": (_ratio(calls("linalg.invert"), measured_samples), ["invert"]),
        "linalg.sym_eigen_s": (self_s("linalg.sym_eigen"), ["sym_eigen"]),
        "stats.kendall_tau_b_calls": (calls("stats.kendall_tau_b"), ["kendall_tau_b"]),
        "stats.kendall_tau_b_s": (self_s("stats.kendall_tau_b"), ["kendall_tau_b"]),
        "stats.kendall_tau_b_per_sample": (
            _ratio(calls("stats.kendall_tau_b"), measured_samples), ["kendall_tau_b"],
        ),
        "stats.distinct_count_s": (self_s("stats.distinct_count"), ["distinct_count"]),
        "harness.self_s": (self_s("harness.run_experiment"), list(TARGETS)),
        "harness.write_all_tables_s": (self_s("harness.write_all_tables"), ["write_all_tables"]),
        "harness.records_written": (records_written, []),
        "harness.bytes_written": (bytes_written, []),
        "harness.load_results_s": (self_s("harness.load_results", reload_agg), ["load_results"]),
        "trace.wall_s": (traced_wall_s, []),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, []),
    }
    for measure in MEASURES:
        values[f"centrality.{measure}_s"] = (
            self_s(f"centrality.{measure}"),
            ["compute_measure", "is_connected_guard", "bfs_all_pairs", "invert", "sym_eigen"],
        )
    absent = set(tracer.absent)
    return {
        name: (None if absent.intersection(needs) else value)
        for name, (value, needs) in values.items()
    }
