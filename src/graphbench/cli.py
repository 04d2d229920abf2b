"""Command-line front end.

Subcommands::

    generate    draw one network and write it as an edge list
    compute     edge-list file -> per-vertex centrality CSV (all 8 measures)
    correlate   Kendall tau-b of two columns of a CSV file
    enumerate   connected non-isomorphic graphs on n vertices, as graph6
    experiment  run a JSON-configured experiment: results dir + tables
    tables      re-derive the roll-up CSVs from a results directory
    heatmap     render the pooled correlation matrix as an SVG

Exit codes: 0 success, 1 partial sample failures, 2 configuration error,
invalid input (such as a short or non-finite row given to ``correlate``),
a file or directory that cannot be read or written (any ``OSError``), or
an input too large to hold in memory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from pathlib import Path

from .centrality import all_measures, centrality_csv
from .generators import (
    DEFAULT_MAX_RETRIES,
    GenerationError,
    ModelConfig,
    MODELS,
    ensure_connected,
    enumerate_connected_nonisomorphic,
    generate,
)
from .graphs import format_edge_list, format_graph6, parse_edge_list
from .harness import run_experiment
from .plan import ConfigError, plan_experiments
from .stats import kendall_tau_b
from .store import HEATMAP_FILE, load_results, recorded_confidence
from .tables import correlation_matrix, emit_heatmap, write_all_tables


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--param expects NAME=VALUE, got {pair!r}")
        name, _, raw = pair.partition("=")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[name] = value
    return params


def _cmd_generate(args) -> int:
    n, params = args.n, _parse_params(args.param)
    if args.model == "kg":
        if not args.initiators or not args.initiator:
            raise ConfigError("model 'kg' needs --initiators FILE and --initiator NAME")
        entry = {name: [value] for name, value in params.items()}
        entry.update(model="kg", initiators=[args.initiator])
        (cell,) = plan_experiments(
            {"models": [entry], "kronecker_initiators_path": args.initiators}
        ).cells
        n, params = cell.n, cell.params_dict()
    cfg = ModelConfig(model=args.model, n=n, params=params, seed=args.seed)
    if args.connected:
        g, retries = ensure_connected(cfg, args.max_retries)
        if retries:
            print(f"connected after {retries} retries", file=sys.stderr)
    else:
        g = generate(cfg)
    _write_output(format_edge_list(g), args.out)
    return 0


def _cmd_compute(args) -> int:
    text = Path(args.edge_list).read_text(encoding="utf-8")
    g = parse_edge_list(text)
    _write_output(centrality_csv(all_measures(g)), args.out)
    return 0


def _cmd_correlate(args) -> int:
    with open(args.csv, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise ConfigError(f"{args.csv}: no data rows")
    for col in (args.x, args.y):
        if col not in rows[0][1]:
            raise ConfigError(f"{args.csv}: no column named '{col}'")
    x, y = [], []
    for line, row in rows:
        for col, values in ((args.x, x), (args.y, y)):
            raw = row[col]
            if raw is None:
                raise ConfigError(f"{args.csv}: line {line}: no value in column '{col}'")
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(
                    f"{args.csv}: line {line}: column '{col}' is not a finite "
                    f"number: {raw!r}"
                )
            values.append(value)
    print(f"{kendall_tau_b(x, y):.6f}")
    return 0


def _cmd_enumerate(args) -> int:
    graphs = enumerate_connected_nonisomorphic(args.n)
    text = "".join(format_graph6(g) + "\n" for g in graphs)
    _write_output(text, args.out)
    print(f"{len(graphs)} connected non-isomorphic graphs on {args.n} vertices",
          file=sys.stderr)
    return 0


def _cmd_experiment(args) -> int:
    plan = plan_experiments(args.config)
    if args.output_dir:
        plan = dataclasses.replace(plan, output_dir=args.output_dir)
    print(
        f"plan: {len(plan.cells)} cells, {plan.total_samples} networks "
        f"-> {plan.output_dir}",
        file=sys.stderr,
    )
    results = run_experiment(plan, workers=args.workers, keep_vectors=args.keep_vectors)
    failures = [r for r in results if r.error is not None]
    errors_by_cell: dict[int, list[str]] = {}
    for r in failures:
        errors_by_cell.setdefault(r.cell_index, []).append(r.error)
    for index, errors in errors_by_cell.items():
        cell = plan.cells[index]
        print(
            f"cell {index} {cell.model} n={cell.n}: {len(errors)}/{cell.samples} "
            f"samples failed; first error: {errors[0]}",
            file=sys.stderr,
        )
    ok = len(results) - len(failures)
    print(
        f"done: {ok}/{len(results)} samples ok; "
        + (f"tables in {plan.output_dir}" if ok else "no tables written"),
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_tables(args) -> int:
    results = load_results(args.results)
    out_dir = args.out_dir if args.out_dir else args.results
    paths = write_all_tables(results, out_dir, recorded_confidence(args.results))
    for name in sorted(paths):
        print(paths[name], file=sys.stderr)
    return 0


def _cmd_heatmap(args) -> int:
    results = load_results(args.results)
    out = args.out if args.out else str(Path(args.results) / HEATMAP_FILE)
    emit_heatmap(correlation_matrix(results), out)
    print(out, file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbench",
        description="centrality measures, network models, and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw one network as an edge list")
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--initiators", help="JSON file of named Kronecker initiators")
    p.add_argument("--initiator", help="initiator name for model 'kg'")
    p.add_argument("--connected", action="store_true",
                   help="retry until the sample is connected")
    p.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compute", help="edge list -> centrality CSV")
    p.add_argument("edge_list")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("correlate", help="Kendall tau-b of two CSV columns")
    p.add_argument("csv")
    p.add_argument("--x", required=True, help="first column name")
    p.add_argument("--y", required=True, help="second column name")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("enumerate", help="connected non-isomorphic graphs as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: the core count)")
    p.add_argument("--keep-vectors", action="store_true",
                   help="persist full centrality vectors per sample")
    p.add_argument("--output-dir", help="override the config's output_dir")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("tables", help="re-derive roll-up CSVs from results")
    p.add_argument("--results", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("heatmap", help="render correlation heatmap SVG")
    p.add_argument("--results", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_heatmap)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
