import json
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import bf_kendall_tau_b

from graphbench import (
    ConfigError,
    correlation_matrix,
    distinct_count,
    emit_heatmap,
    kendall_tau_b,
    load_results,
    plan_experiments,
    run_experiment,
    write_all_tables,
)
from graphbench import cli, harness
from graphbench.cli import main as cli_main
from graphbench.generators import KroneckerInitiator, ModelConfig, kronecker
from graphbench.graphs import Graph, format_edge_list
from graphbench.harness import TABLE_FILES, RunResult, _ramp

ROOT = Path(__file__).resolve().parent.parent

# Configs whose every sample would fail its generator's own check; the
# plan rejects each with that generator's message.
OUT_OF_RANGE = [
    ({"model": "er", "n": [10], "p": [1.5]}, "edge probability must be in [0, 1], got 1.5"),
    ({"model": "sf", "n": [10], "k": [20]}, "need 2 <= k < n, got k=20, n=10"),
    ({"model": "sw", "n": [10], "k": [3], "p": [0.1]}, "neighbor count k must be even, got 3"),
    ({"model": "gr", "n": [10], "kappa": [1.5]},
     "geographical model needs a square vertex count, got 10"),
    ({"model": "er", "n": [10], "p": ["x"]}, "model 'er' parameter 'p' must be a number, got 'x'"),
]
OUT_OF_RANGE_IDS = ["er_p", "sf_k", "sw_odd_k", "gr_n", "er_p_text"]

# Probabilities and kappa are ints or floats: a string or a boolean is
# rejected, never coerced.
NOT_NUMBERS = [
    ({"model": "er", "n": [10], "p": ["0.5"]}, "model 'er' parameter 'p' must be a number, got '0.5'"),
    ({"model": "gr", "n": [9], "kappa": [True]},
     "model 'gr' parameter 'kappa' must be a number, got True"),
    ({"model": "cs", "n": [10], "p_c": ["0.1"], "p": [0.5], "c_div": [2]},
     "model 'cs' parameter 'p_c' must be a number, got '0.1'"),
    ({"model": "sw", "n": [10], "k": [4], "p": [False]},
     "model 'sw' parameter 'p' must be a number, got False"),
]
NOT_NUMBERS_IDS = ["er_p_number_text", "gr_kappa_bool", "cs_p_c_text", "sw_p_bool"]


def _tiny_config(out_dir, **overrides):
    config = {
        "models": [{"model": "er", "n": [30], "p": [0.3]}],
        "samples_per_cell": 2,
        "base_seed": 7,
        "output_dir": str(out_dir),
    }
    config.update(overrides)
    return config


class TestPlanning:
    def test_er_grid_cell_count(self):
        plan = plan_experiments({
            "models": [{"model": "er", "n": [100, 500], "p": [0.1, 0.3, 0.5]}],
            "samples_per_cell": 100,
        })
        assert len(plan.cells) == 6
        assert plan.total_samples == 600

    def test_sw_grid_cell_count(self):
        plan = plan_experiments({
            "models": [{"model": "sw", "n": [100, 500], "k": [4, 8, 16],
                        "p": [0.1, 0.3, 0.5]}],
            "samples_per_cell": 100,
        })
        assert plan.total_samples == 1800

    def test_cs_communities_follow_size(self):
        plan = plan_experiments({
            "models": [{"model": "cs", "n": [100, 500], "p_c": [0.1],
                        "p": [0.5], "c_div": [10, 50]}],
        })
        cells = {(c.n, c.params_dict()["c_div"]): c.params_dict()["c"]
                 for c in plan.cells}
        assert cells[(100, 10)] == 10
        assert cells[(100, 50)] == 2
        assert cells[(500, 10)] == 50

    def test_nonisomorphic_cells_have_known_counts(self):
        plan = plan_experiments({
            "models": [{"model": "nonisomorphic", "n": [6, 7]}],
        })
        assert [c.samples for c in plan.cells] == [112, 853]

    @pytest.mark.parametrize("n, message", [
        (0, "model 'nonisomorphic' parameter 'n' must be a whole number >= 1, got 0"),
        (8, "census supports 1 <= n <= 7, got 8"),
    ])
    def test_census_size_rule(self, n, message):
        with pytest.raises(ConfigError) as got:
            plan_experiments({"models": [{"model": "nonisomorphic", "n": [n]}]})
        assert str(got.value) == message

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigError, match="models"):
            plan_experiments({"models": []})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model 'zz'"):
            plan_experiments({"models": [{"model": "zz"}]})

    def test_unknown_parameter_named(self):
        with pytest.raises(ConfigError, match="'q'"):
            plan_experiments({"models": [{"model": "er", "n": [10], "p": [0.1],
                                          "q": [1]}]})

    def test_unknown_config_key_named(self):
        with pytest.raises(ConfigError, match="'typo'"):
            plan_experiments({"models": [{"model": "er", "n": [10], "p": [0.1]}],
                              "typo": 3})

    @pytest.mark.parametrize("key, value, match", [
        ("max_retries", 0, "'max_retries' must be >= 1, got 0"),
        ("max_retries", -3, "'max_retries' must be >= 1, got -3"),
        ("confidence", 1.5, r"'confidence' must be in \(0, 1\), got 1.5"),
        ("confidence", 0.0, r"'confidence' must be in \(0, 1\), got 0.0"),
        ("confidence", 1, r"'confidence' must be in \(0, 1\), got 1.0"),
        ("confidence", "0.5", "'confidence' must be a number, got '0.5'"),
        ("confidence", "abc", "'confidence' must be a number, got 'abc'"),
        ("confidence", True, "'confidence' must be a number, got True"),
        ("metrics", ["degree", "degree", "closeness"], "'metrics' lists 'degree' twice"),
        ("metrics", "degree", "'metrics' must be a list of measures, got 'degree'"),
    ], ids=["retries_0", "retries_negative", "confidence_1.5", "confidence_0",
            "confidence_1", "confidence_string", "confidence_text", "confidence_bool",
            "metrics_repeated", "metrics_string"])
    def test_invalid_run_settings_rejected(self, key, value, match):
        with pytest.raises(ConfigError, match=match):
            plan_experiments({"models": [{"model": "er", "n": [5], "p": [0.5]}],
                              key: value})

    def test_config_must_be_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('"abc"')
        with pytest.raises(ConfigError, match="config must be a JSON object, got 'abc'"):
            plan_experiments(path)

    def test_model_entry_must_be_an_object(self):
        with pytest.raises(ConfigError, match="model entry must be a JSON object, got 'model'"):
            plan_experiments({"models": ["model"]})

    @pytest.mark.parametrize("n", [2.5, 0, -3, "10", True])
    def test_n_must_be_a_whole_number(self, n):
        with pytest.raises(ConfigError, match="parameter 'n' must be a whole number >= 1"):
            plan_experiments({"models": [{"model": "er", "n": [n], "p": [0.5]}]})

    @pytest.mark.parametrize("key, value, match", [
        ("samples_per_cell", 2.5, "'samples_per_cell' must be a whole number, got 2.5"),
        ("samples_per_cell", "3", "'samples_per_cell' must be a whole number, got '3'"),
        ("samples_per_cell", True, "'samples_per_cell' must be a whole number, got True"),
        ("max_retries", 3.9, "'max_retries' must be a whole number, got 3.9"),
        ("max_retries", 5.0, "'max_retries' must be a whole number, got 5.0"),
        ("base_seed", 1.7, "'base_seed' must be a whole number, got 1.7"),
        ("base_seed", "7", "'base_seed' must be a whole number, got '7'"),
        ("base_seed", False, "'base_seed' must be a whole number, got False"),
        ("base_seed", -1, r"'base_seed' must be in \[0, 2\*\*64\), got -1"),
        ("base_seed", 2**64, r"'base_seed' must be in \[0, 2\*\*64\), got 18446744073709551616"),
    ])
    def test_run_settings_must_be_whole_numbers(self, key, value, match):
        with pytest.raises(ConfigError, match=match):
            plan_experiments({"models": [{"model": "er", "n": [5], "p": [0.5]}],
                              key: value})

    @pytest.mark.parametrize("c_div", [2.5, "10", True])
    def test_cs_c_div_must_be_a_whole_number(self, c_div):
        with pytest.raises(ConfigError, match="'c_div' must be a whole number"):
            plan_experiments({"models": [{"model": "cs", "n": [40], "p_c": [0.1],
                                          "p": [0.5], "c_div": [c_div]}]})

    @pytest.mark.parametrize("k", [2.5, "3", True])
    def test_kg_k_must_be_a_whole_number(self, tmp_path, k):
        path = tmp_path / "initiators.json"
        path.write_text('{"a": [0.9, 0.5, 0.5, 0.1]}')
        with pytest.raises(ConfigError, match="parameter 'k' must be a whole number"):
            plan_experiments({"models": [{"model": "kg", "k": [k]}],
                              "kronecker_initiators_path": str(path)})

    @pytest.mark.parametrize("k", [2.5, 4.0, "3", True])
    @pytest.mark.parametrize("model", ["sf", "sw"])
    def test_sf_sw_k_must_be_a_whole_number(self, model, k):
        entry = {"model": model, "n": [30], "k": [k], **({"p": [0.1]} if model == "sw" else {})}
        with pytest.raises(ConfigError, match=f"model '{model}' parameter 'k' must be a whole number"):
            plan_experiments({"models": [entry]})

    def test_base_seed_bounds_accepted(self):
        for seed in (0, 2**64 - 1):
            assert plan_experiments({"models": [{"model": "er", "n": [5], "p": [0.5]}],
                                     "base_seed": seed}).base_seed == seed

    def test_kg_needs_initiators(self):
        with pytest.raises(ConfigError, match="kronecker_initiators_path"):
            plan_experiments({"models": [{"model": "kg", "k": [3]}]})

    @staticmethod
    def _kg_plan(tmp_path, **entry):
        path = tmp_path / "initiators.json"
        path.write_text('{"b": [0.9, 0.6, 0.6, 0.2], "a": [0.99, 0.7, 0.7, 0.3]}')
        return plan_experiments({"models": [{"model": "kg", **entry}],
                                 "kronecker_initiators_path": str(path)})

    @pytest.mark.parametrize("names", [{}, {"initiators": ["a", "b"]}],
                             ids=["default", "listed"])
    def test_kg_grid_over_initiators_and_powers(self, tmp_path, names):
        plan = self._kg_plan(tmp_path, k=[3, 4], **names)
        a = ("initiator", (0.99, 0.7, 0.7, 0.3)), ("initiator_name", "a")
        b = ("initiator", (0.9, 0.6, 0.6, 0.2)), ("initiator_name", "b")
        assert [(c.model, c.n, c.params) for c in plan.cells] == [
            ("kg", 8, (*a, ("k", 3))), ("kg", 16, (*a, ("k", 4))),
            ("kg", 8, (*b, ("k", 3))), ("kg", 16, (*b, ("k", 4))),
        ]

    @pytest.mark.parametrize("entry, match", [
        ({"k": [0]}, "model 'kg' parameter 'k' must be >= 1, got 0"),
        ({"k": [-1]}, "model 'kg' parameter 'k' must be >= 1, got -1"),
        ({"k": [3], "initiators": []}, "model 'kg' parameter 'initiators' is empty"),
        ({"k": [3], "initiators": ["c"]}, "unknown Kronecker initiator 'c'"),
        ({"k": [3], "initiator": ["a"]}, "unknown parameter 'initiator' for model 'kg'"),
        ({"initiators": ["a"]}, "model 'kg' is missing parameter 'k'"),
    ], ids=["k_0", "k_negative", "no_initiators", "unknown_initiator",
            "initiator_key", "no_k"])
    def test_invalid_kg_entry_rejected(self, tmp_path, entry, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            self._kg_plan(tmp_path, **entry)

    @pytest.mark.parametrize("entries, message", [
        ('[true, "0.5", 0.5, 0.1]', "model 'kg' parameter 'initiator' must be a number, got True"),
        ('[0.9, "0.5", 0.5, 0.1]', "model 'kg' parameter 'initiator' must be a number, got '0.5'"),
        ("[0.9, 0.5, 0.5]", "initiator needs exactly 4 probabilities (row-major)"),
        ("[0.9, 0.5, 1.5, 0.1]", "initiator entries must lie in [0, 1]: (0.9, 0.5, 1.5, 0.1)"),
    ], ids=["bool", "text", "length", "range"])
    def test_initiator_entries_checked_not_converted(self, tmp_path, entries, message):
        path = tmp_path / "initiators.json"
        path.write_text(f'{{"a": {entries}}}')
        with pytest.raises(ConfigError) as got:
            plan_experiments({"models": [{"model": "kg", "k": [3]}],
                              "kronecker_initiators_path": str(path)})
        assert str(got.value) == message

    def test_whole_initiator_entries_stored_as_floats(self, tmp_path):
        path = tmp_path / "initiators.json"
        path.write_text('{"a": [1, 0, 0.5, 1]}')
        (cell,) = plan_experiments({"models": [{"model": "kg", "k": [3]}],
                                    "kronecker_initiators_path": str(path)}).cells
        assert cell.params_dict()["initiator"] == (1.0, 0.0, 0.5, 1.0)
        assert all(type(x) is float for x in cell.params_dict()["initiator"])

    @pytest.mark.parametrize("entry, message", OUT_OF_RANGE + NOT_NUMBERS,
                             ids=OUT_OF_RANGE_IDS + NOT_NUMBERS_IDS)
    def test_generator_rules_checked_at_plan_time(self, entry, message):
        with pytest.raises(ConfigError) as got:
            plan_experiments({"models": [entry]})
        assert str(got.value) == message

    @pytest.mark.parametrize("c_div, message", [
        (0, "model 'cs' parameter 'c_div' must be >= 1, got 0"),
        (-5, "model 'cs' parameter 'c_div' must be >= 1, got -5"),
        (50, "community count must be >= 1, got 0"),
    ], ids=["zero", "negative", "no_community"])
    def test_cs_c_div_range(self, c_div, message):
        with pytest.raises(ConfigError) as got:
            plan_experiments({"models": [{"model": "cs", "n": [40], "p_c": [0.1],
                                          "p": [0.5], "c_div": [c_div]}]})
        assert str(got.value) == message

    def test_shipped_configs_plan(self, monkeypatch):
        # The shipped configs name their initiator file relative to the
        # repository root, where the README runs them.
        monkeypatch.chdir(ROOT)
        paths = [path for path in sorted((ROOT / "configs").glob("*.json"))
                 if "models" in json.loads(path.read_text())]
        assert len(paths) >= 2
        for path in paths:
            plan = plan_experiments(path)
            for cell in plan.cells:
                if cell.model != "nonisomorphic":
                    cfg = ModelConfig(cell.model, cell.n, cell.params_dict())
                    assert cfg.params == cell.params_dict()

    def test_replanning_is_identical(self):
        config = _tiny_config("x")
        assert plan_experiments(config) == plan_experiments(config)

    def test_seeds_are_deterministic_per_cell(self):
        plan = plan_experiments(_tiny_config("x"))
        cell = plan.cells[0]
        assert plan.sample_seed(cell, 0) != plan.sample_seed(cell, 1)
        assert plan.sample_seed(cell, 0) == plan.sample_seed(cell, 0)


class TestRun:
    def test_tiny_run_structure(self, tmp_path):
        plan = plan_experiments(_tiny_config(tmp_path / "out"))
        results = run_experiment(plan)
        assert len(results) == 2
        for r in results:
            assert r.error is None
            assert len(r.distinct_counts) == 8
            assert len(r.tau) == 28
            assert all(-1.0 <= t <= 1.0 for t in r.tau.values())
        assert (tmp_path / "out" / "manifest.json").exists()
        assert len(list((tmp_path / "out" / "samples").glob("*.json"))) == 2
        for name in ("correlation.csv", "granularity.csv", "best.csv",
                     "correlation_by_model.csv", "granularity_by_size.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_loaded_results_match_run(self, tmp_path):
        plan = plan_experiments(_tiny_config(tmp_path / "out"))
        results = run_experiment(plan)
        loaded = load_results(tmp_path / "out")
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]

    def test_worker_counts_agree_byte_for_byte(self, tmp_path):
        config = _tiny_config(tmp_path / "a", samples_per_cell=3)
        # Census cells travel to the pool as stacks of pickled Graphs.
        config["models"].append({"model": "nonisomorphic", "n": [5, 6]})
        run_experiment(plan_experiments(config), workers=1)
        config["output_dir"] = str(tmp_path / "b")
        run_experiment(plan_experiments(config), workers=2)
        untimed = [
            [{**r.to_dict(), "timings": None} for r in load_results(tmp_path / side)]
            for side in ("a", "b")
        ]
        assert len(untimed[0]) == 3 + 21 + 112
        assert untimed[0] == untimed[1]
        for name in ("correlation.csv", "granularity.csv", "best.csv",
                     "correlation_by_model.csv", "granularity_by_size.csv",
                     "manifest.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_records_are_one_line(self, tmp_path):
        run_experiment(plan_experiments(_tiny_config(tmp_path / "out")))
        for path in (tmp_path / "out" / "samples").glob("*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        manifest = (tmp_path / "out" / "manifest.json").read_text()
        assert manifest == json.dumps(json.loads(manifest), indent=2, sort_keys=True) + "\n"

    def test_failing_stack_kernel_fails_its_stack(self, tmp_path, monkeypatch):
        def broken(graphs):
            raise ArithmeticError("no spectrum")

        monkeypatch.setitem(harness.STACK_KERNELS, "subgraph", broken)
        config = _tiny_config(tmp_path / "out", samples_per_cell=1,
                              models=[{"model": "nonisomorphic", "n": [4, 5]},
                                      {"model": "er", "n": [30], "p": [0.3]}])
        results = run_experiment(plan_experiments(config))
        assert len(results) == 6 + 21 + 1
        for r in results:
            assert r.error == "ArithmeticError: no spectrum"
            assert r.tau == {} and r.distinct_counts == {}
            # Measures before subgraph in the plan's order were timed.
            assert list(r.timings) == ["betweenness", "closeness", "degree",
                                       "eccentricity", "eigenvector", "information"]

    def test_failing_graph_measure_fails_its_sample_only(self, tmp_path, monkeypatch):
        config = _tiny_config(tmp_path / "a", models=[{"model": "nonisomorphic", "n": [5]}])
        clean = run_experiment(plan_experiments(config))
        census = harness.enumerate_connected_nonisomorphic(5)
        doomed = census[7].edges.tobytes()
        measure = harness.compute_measure

        def failing(g, m):
            if m == "closeness" and g.edges.tobytes() == doomed:
                raise ArithmeticError("closeness broke")
            return measure(g, m)

        monkeypatch.setattr(harness, "compute_measure", failing)
        config["output_dir"] = str(tmp_path / "b")
        results = run_experiment(plan_experiments(config))
        assert [r.error for r in results] == (
            [None] * 7 + ["ArithmeticError: closeness broke"] + [None] * 13)
        assert list(results[7].timings) == ["betweenness"]
        assert results[7].tau == {} and results[7].distinct_counts == {}
        # The stack's statistics run without the failed sample, and the
        # others read as in the clean run.
        for r, c in zip(results, clean):
            if r.error is None:
                assert {**r.to_dict(), "timings": None} == {**c.to_dict(), "timings": None}

    def test_stacked_timings_share_the_call(self, tmp_path):
        config = _tiny_config(tmp_path / "out", models=[{"model": "nonisomorphic", "n": [5]}])
        results = run_experiment(plan_experiments(config))
        for m in harness.STACK_KERNELS:
            assert len({r.timings[m] for r in results}) == 1
        assert len({r.timings["closeness"] for r in results}) > 1

    def test_failed_cell_recorded_and_run_continues(self, tmp_path):
        config = {
            "models": [
                {"model": "er", "n": [5], "p": [0.0]},
                {"model": "er", "n": [20], "p": [0.5]},
            ],
            "samples_per_cell": 2,
            "max_retries": 5,
            "output_dir": str(tmp_path / "out"),
        }
        results = run_experiment(plan_experiments(config))
        failed = [r for r in results if r.error is not None]
        ok = [r for r in results if r.error is None]
        assert len(failed) == 2 and len(ok) == 2
        assert "no connected sample" in failed[0].error

    def test_nonisomorphic_plan_runs_corpus(self, tmp_path):
        config = {
            "models": [{"model": "nonisomorphic", "n": [4]}],
            "output_dir": str(tmp_path / "out"),
        }
        results = run_experiment(plan_experiments(config))
        assert len(results) == 6
        assert all(r.error is None for r in results)
        assert {r.n for r in results} == {4}

    def test_one_graph_per_census_sample(self, tmp_path, monkeypatch):
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["n"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        config = {"models": [{"model": "nonisomorphic", "n": [5]}],
                  "output_dir": str(tmp_path / "out")}
        results = run_experiment(plan_experiments(config), workers=1)
        assert [r.error for r in results] == [None] * 21
        assert built == [5] * 21

    def test_malformed_record_named(self, tmp_path):
        plan = plan_experiments(_tiny_config(tmp_path / "out", samples_per_cell=1,
                                             metrics=["degree", "closeness"]))
        run_experiment(plan)
        path = tmp_path / "out" / "samples" / "cell0000_s0000.json"
        record = json.loads(path.read_text())
        for text in (json.dumps({**record, "typo": 1}),
                     json.dumps({**record, "cell_index": "0"}),
                     json.dumps({k: v for k, v in record.items() if k != "retries"}),
                     json.dumps(record)[:-1]):
            path.write_text(text)
            with pytest.raises(ValueError, match="cell0000_s0000.json"):
                load_results(tmp_path / "out")

    def test_copied_record_rejected(self, tmp_path):
        plan = plan_experiments(_tiny_config(tmp_path / "out", samples_per_cell=1,
                                             metrics=["degree", "closeness"]))
        run_experiment(plan)
        samples = tmp_path / "out" / "samples"
        record = (samples / "cell0000_s0000.json").read_text()
        for name in ("cell0000_s0000 copy.json", "cell0001_s0000.json"):
            (samples / name).write_text(record)
            with pytest.raises(ValueError, match=re.escape(name)):
                load_results(tmp_path / "out")
            (samples / name).unlink()
        assert len(load_results(tmp_path / "out")) == 1

    def test_rerun_with_fewer_samples_drops_stale_records(self, tmp_path):
        metrics = ["degree", "closeness"]
        run_experiment(plan_experiments(
            _tiny_config(tmp_path / "out", samples_per_cell=6, metrics=metrics)))
        run_experiment(plan_experiments(
            _tiny_config(tmp_path / "out", samples_per_cell=2, metrics=metrics)))
        assert len(load_results(tmp_path / "out")) == 2

    def test_rerun_removes_stale_heatmap(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(plan_experiments(_tiny_config(out)))
        assert cli_main(["heatmap", "--results", str(out)]) == 0
        assert (out / "heatmap.svg").is_file()
        run_experiment(plan_experiments(_tiny_config(out, base_seed=5)))
        assert not (out / "heatmap.svg").exists()

    def test_pool_size_capped(self, tmp_path, monkeypatch):
        sizes = []

        class FakePool:
            """Records the requested size and maps in this process."""

            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        plan = plan_experiments(_tiny_config(tmp_path / "out", samples_per_cell=3,
                                             metrics=["degree", "closeness"]))
        for cpus, workers in ((2, 8), (64, 8), (None, 8), (1, 8), (64, 1)):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
            results = run_experiment(plan, workers=workers)
            assert [r.error for r in results] == [None] * 3
        # Capped by the core count, then by the 3 samples; serial at 1.
        assert sizes == [2, 3]
        # A census cell is one stack, whatever its sample count.
        sizes.clear()
        census = plan_experiments(_tiny_config(
            tmp_path / "census", metrics=["degree", "closeness"],
            models=[{"model": "nonisomorphic", "n": [4, 5]}]))
        for workers in (8, 1):
            results = run_experiment(census, workers=workers)
            assert [r.error for r in results] == [None] * 27
        assert sizes == [2]

    def test_keep_vectors(self, tmp_path):
        plan = plan_experiments(_tiny_config(tmp_path / "out"))
        results = run_experiment(plan, keep_vectors=True)
        assert set(results[0].vectors) == set(results[0].distinct_counts)
        assert len(results[0].vectors["degree"]) == 30

    def test_statistics_match_one_dimensional_forms(self, tmp_path):
        # The stacked kernels against the per-vector statistics, on every
        # record of a mixed run: tau indexed by the right measure pair,
        # counts by the right measure.
        config = _tiny_config(tmp_path / "out", models=[
            {"model": "nonisomorphic", "n": [5]},
            {"model": "er", "n": [30], "p": [0.3]},
            {"model": "sw", "n": [40], "k": [4], "p": [0.3]},
        ])
        results = run_experiment(plan_experiments(config), keep_vectors=True)
        assert len(results) == 21 + 2 + 2
        for r in results:
            assert r.error is None
            assert len(r.tau) == 28
            for pair, tau in r.tau.items():
                a, b = pair.split("|")
                assert tau == kendall_tau_b(r.vectors[a], r.vectors[b]), pair
                assert tau == bf_kendall_tau_b(r.vectors[a], r.vectors[b]), pair
            assert r.distinct_counts == {
                m: distinct_count(v) for m, v in r.vectors.items()
            }
            assert r.granularity == {
                m: 100.0 * distinct_count(v) / r.n for m, v in r.vectors.items()
            }

    def test_metric_subset(self, tmp_path):
        config = _tiny_config(tmp_path / "out", metrics=["degree", "closeness"])
        results = run_experiment(plan_experiments(config))
        assert set(results[0].distinct_counts) == {"degree", "closeness"}
        assert list(results[0].tau) == ["closeness|degree"]


@pytest.fixture(scope="module")
def mixed_dir(tmp_path_factory):
    """Results directory of a run over two models and a census cell."""
    out = tmp_path_factory.mktemp("mixed") / "results"
    config = {
        "models": [
            {"model": "er", "n": [25], "p": [0.4]},
            {"model": "sw", "n": [24], "k": [4], "p": [0.3]},
            {"model": "nonisomorphic", "n": [4]},
        ],
        "samples_per_cell": 3,
        "base_seed": 11,
        "output_dir": str(out),
    }
    run_experiment(plan_experiments(config))
    return out


def _table_lines(out_dir, name):
    return (out_dir / TABLE_FILES[name]).read_text().strip().split("\n")


class TestTables:
    def test_correlation_has_28_lower_triangle_cells(self, mixed_dir):
        lines = _table_lines(mixed_dir, "correlation")
        assert lines[0] == "metric,C_c,C_b,C_d,C_e,C_i,C_s,C_w,C_x"
        assert len(lines) == 9
        populated = sum(
            1 for line in lines[1:] for cell in line.split(",")[1:] if cell
        )
        assert populated == 28
        assert lines[1].startswith("C_c,")
        assert lines[8].startswith("C_x,")

    def test_granularity_groups_and_order(self, mixed_dir):
        lines = _table_lines(mixed_dir, "granularity")
        assert lines[0] == ("metric,complex_models_mean,complex_models_ci,"
                            "nonisomorphic_mean,nonisomorphic_ci")
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["C_b", "C_c", "C_d", "C_x", "C_e", "C_i", "C_s", "C_w"]
        for line in lines[1:]:
            cells = line.split(",")[1:]
            assert all(cells), line  # both groups present here

    def test_single_network_granularity_omits_half_width(self, tmp_path):
        config = {
            "models": [{"model": "er", "n": [20], "p": [0.5]}],
            "samples_per_cell": 1,
            "output_dir": str(tmp_path / "out"),
        }
        results = run_experiment(plan_experiments(config))
        row = _table_lines(tmp_path / "out", "granularity")[1].split(",")
        assert row[1] != "" and row[2] == ""
        assert float(row[1]) == pytest.approx(results[0].granularity["betweenness"])
        row = _table_lines(tmp_path / "out", "granularity_by_size")[1].split(",")
        assert row[:3] == ["C_b", "complex_models", "20"]
        assert row[3] != "" and row[4] == ""
        assert float(row[3]) == pytest.approx(results[0].granularity["betweenness"])

    def test_best_columns_follow_family_order(self, mixed_dir):
        lines = _table_lines(mixed_dir, "best")
        assert lines[0] == "metric,N_ni,M_cs,M_sf,M_sw,M_gr,M_er,M_kg"
        # kg and cs, sf, gr were not run: their columns stay empty.
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] != "" and cells[4] != "" and cells[6] != ""
            assert cells[2] == "" and cells[3] == "" and cells[7] == ""

    def test_granularity_by_size_groups(self, mixed_dir):
        lines = _table_lines(mixed_dir, "granularity_by_size")
        assert lines[0] == "metric,group,n,mean,ci"
        rows = {tuple(line.split(",")[:3]) for line in lines[1:]}
        assert ("C_b", "complex_models", "24") in rows
        assert ("C_b", "complex_models", "25") in rows
        assert ("C_b", "nonisomorphic", "4") in rows

    def test_best_columns_may_sum_above_100(self, mixed_dir):
        lines = _table_lines(mixed_dir, "best")[1:]
        noniso = [float(line.split(",")[1]) for line in lines if line.split(",")[1]]
        assert sum(noniso) > 100.0

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_all_tables([], tmp_path)
        failed = RunResult(cell_index=0, sample_index=0, model="er", n=5,
                           params={}, seed=0, error="boom")
        with pytest.raises(ValueError):
            write_all_tables([failed], tmp_path)

    def test_tables_pure_function_of_stored_results(self, mixed_dir, tmp_path):
        paths = write_all_tables(load_results(mixed_dir), tmp_path)
        assert set(paths) == set(TABLE_FILES)
        for name, path in paths.items():
            assert path.read_bytes() == (mixed_dir / TABLE_FILES[name]).read_bytes(), name


def _sample(cell, model, tau, sample=0, error=None):
    return RunResult(cell_index=cell, sample_index=sample, model=model, n=5,
                     params={}, seed=0, tau=tau, error=error)


def _saved(out_dir, *results):
    """Write ``results`` as the sample records of ``out_dir``."""
    samples = out_dir / "samples"
    samples.mkdir(parents=True, exist_ok=True)
    for r in results:
        name = f"cell{r.cell_index:04d}_s{r.sample_index:04d}.json"
        (samples / name).write_text(json.dumps(r.to_dict()))
    return out_dir


class TestTauRollup:
    """The tau roll-ups of hand-built samples, and the tau checks on load."""

    def test_pooled_mean(self):
        results = [
            _sample(0, "er", {"closeness|degree": 0.5, "betweenness|closeness": 1.0}),
            _sample(1, "sw", {"closeness|degree": 0.7, "betweenness|closeness": 0.8}),
            _sample(2, "sw", {"closeness|degree": -1.0}, error="boom"),
        ]
        assert correlation_matrix(results) == pytest.approx(
            {"closeness|degree": 0.6, "betweenness|closeness": 0.9}
        )

    def test_by_model_count_and_half_width(self, tmp_path):
        results = [
            _sample(0, "er", {"closeness|degree": v, "betweenness|closeness": w}, sample=i)
            for i, (v, w) in enumerate([(0.2, 1.0), (0.4, 0.5), (0.9, -0.25)])
        ]
        results.append(_sample(1, "sw", {"closeness|degree": 0.7}))
        write_all_tables(results, tmp_path, confidence=0.95)
        # Half-widths are z * s / sqrt(3) with z = 1.959964 at 95%:
        # s = 0.360555 and 0.629153. One sw sample has no half-width.
        assert _table_lines(tmp_path, "correlation_by_model") == [
            "model,pair,mean_tau,count,ci_half_width",
            "M_sw,C_c|C_d,0.700000,1,",
            "M_er,C_c|C_b,0.416667,3,0.711940",
            "M_er,C_c|C_d,0.500000,3,0.407999",
        ]
        rows = _table_lines(tmp_path, "correlation")
        assert rows[2] == "C_b,0.42,,,,,,,"
        assert rows[3] == "C_d,0.55,,,,,,,"  # pooled over both families

    @pytest.mark.parametrize("tau", [
        {"closeness|degree": 1.5},
        {"closeness|degree": -1.000001},
        {"closeness|degree": float("nan")},
        {"closeness|degree": "0.5"},
        {"degree|closeness": 0.5},
        {"closeness|speed": 0.5},
        {"closeness": 0.5},
        [0.5],
    ], ids=["above_1", "below_minus_1", "nan", "string", "reversed_pair",
            "unknown_measure", "not_a_pair", "not_a_mapping"])
    def test_bad_tau_rejected_on_load(self, tmp_path, tau):
        good = _sample(0, "er", {"closeness|degree": 1.0 + 1e-13})
        out = _saved(tmp_path, good, _sample(1, "er", tau))
        with pytest.raises(ValueError, match="cell0001_s0000.json"):
            load_results(out)
        (out / "samples" / "cell0001_s0000.json").unlink()
        assert [r.tau for r in load_results(out)] == [good.tau]


class TestHeatmap:
    def test_ramp_monotone_in_tau(self):
        taus = np.linspace(-1, 1, 21)
        reds = [int(_ramp(t)[1:3], 16) for t in taus]
        blues = [int(_ramp(t)[5:7], 16) for t in taus]
        assert all(np.diff(reds) >= 0)
        assert all(np.diff(blues) <= 0)

    def test_full_matrix_renders(self, tmp_path):
        config = {
            "models": [{"model": "er", "n": [20], "p": [0.5]}],
            "samples_per_cell": 2,
            "output_dir": str(tmp_path / "out"),
        }
        results = run_experiment(plan_experiments(config))
        matrix = correlation_matrix(results)
        path = emit_heatmap(matrix, tmp_path / "map.svg")
        svg = path.read_text()
        assert svg.count("<rect") == 65  # 64 cells + background
        assert svg.count("1.00") >= 8  # diagonal

    def test_hot_cells_are_hottest(self, tmp_path):
        # Off-diagonal values >= 0.8 must map to hotter (redder) fills
        # than every smaller value.
        strong, weak = _ramp(0.8), _ramp(0.55)
        assert int(strong[1:3], 16) > int(weak[1:3], 16)

    def test_incomplete_matrix_rejected(self, tmp_path):
        config = {
            "models": [{"model": "er", "n": [20], "p": [0.5]}],
            "samples_per_cell": 2,
            "metrics": ["degree", "closeness"],
            "output_dir": str(tmp_path / "out"),
        }
        results = run_experiment(plan_experiments(config))
        matrix = correlation_matrix(results)
        with pytest.raises(ValueError, match="complete"):
            emit_heatmap(matrix, tmp_path / "map.svg")


class TestCli:
    def test_generate_compute_correlate(self, tmp_path, capsys):
        edge_file = tmp_path / "g.edges"
        rc = cli_main([
            "generate", "--model", "er", "--n", "40", "--seed", "3",
            "--param", "p=0.3", "--connected", "--out", str(edge_file),
        ])
        assert rc == 0
        csv_file = tmp_path / "scores.csv"
        rc = cli_main(["compute", str(edge_file), "--out", str(csv_file)])
        assert rc == 0
        header = csv_file.read_text().splitlines()[0]
        assert header.startswith("vertex,betweenness,")
        rc = cli_main(["correlate", str(csv_file), "--x", "degree",
                       "--y", "eigenvector"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"-?\d\.\d{6}", out)

    def test_enumerate(self, tmp_path):
        out = tmp_path / "four.g6"
        rc = cli_main(["enumerate", "--n", "4", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 6

    def test_experiment_tables_heatmap(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_tiny_config(tmp_path / "results")))
        assert cli_main(["experiment", "--config", str(config)]) == 0
        assert cli_main(["tables", "--results", str(tmp_path / "results"),
                         "--out-dir", str(tmp_path / "rederived")]) == 0
        original = (tmp_path / "results" / "correlation.csv").read_text()
        rederived = (tmp_path / "rederived" / "correlation.csv").read_text()
        assert original == rederived
        svg = tmp_path / "map.svg"
        assert cli_main(["heatmap", "--results", str(tmp_path / "results"),
                         "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_tables_use_recorded_confidence(self, tmp_path):
        config = tmp_path / "config.json"
        results = tmp_path / "results"
        config.write_text(json.dumps(_tiny_config(
            results, samples_per_cell=3, confidence=0.5,
            models=[{"model": "er", "n": [30], "p": [0.3, 0.5]}],
        )))
        assert cli_main(["experiment", "--config", str(config)]) == 0
        assert cli_main(["tables", "--results", str(results),
                         "--out-dir", str(tmp_path / "rederived")]) == 0
        for name in TABLE_FILES.values():
            original = (results / name).read_bytes()
            assert (tmp_path / "rederived" / name).read_bytes() == original, name
        # Without a manifest the default level applies, and the CIs move.
        (results / "manifest.json").unlink()
        assert cli_main(["tables", "--results", str(results),
                         "--out-dir", str(tmp_path / "default")]) == 0
        default = (tmp_path / "default" / TABLE_FILES["granularity"]).read_bytes()
        assert default != (results / TABLE_FILES["granularity"]).read_bytes()
        (results / "manifest.json").write_text("[]")
        assert cli_main(["tables", "--results", str(results),
                         "--out-dir", str(tmp_path / "bad")]) == 2

    @pytest.mark.parametrize("confidence", [
        "0.99", True, False, None, [0.9], 0, 1, 1.5, 1.0, 0.0, -0.5, float("nan"),
    ])
    def test_tables_reject_bad_recorded_confidence(self, mixed_dir, tmp_path, capsys,
                                                   confidence):
        manifest = mixed_dir / "manifest.json"
        good = manifest.read_text()
        recorded = json.loads(good)
        recorded["confidence"] = confidence
        manifest.write_text(json.dumps(recorded))
        try:
            rc = cli_main(["tables", "--results", str(mixed_dir),
                           "--out-dir", str(tmp_path / "bad")])
        finally:
            manifest.write_text(good)
        assert rc == 2
        assert f"error: {manifest}: confidence must be a number in (0, 1)" in (
            capsys.readouterr().err)
        assert not (tmp_path / "bad").exists()

    def test_tables_reject_unparsable_manifest(self, mixed_dir, tmp_path, capsys):
        manifest = mixed_dir / "manifest.json"
        good = manifest.read_text()
        manifest.write_text("{not json")
        try:
            rc = cli_main(["tables", "--results", str(mixed_dir),
                           "--out-dir", str(tmp_path / "bad")])
        finally:
            manifest.write_text(good)
        assert rc == 2
        assert f"error: {manifest}: not valid JSON" in capsys.readouterr().err

    def test_partial_failure_exit_code(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "models": [
                {"model": "er", "n": [5], "p": [0.0]},
                {"model": "er", "n": [20], "p": [0.5]},
            ],
            "samples_per_cell": 2,
            "max_retries": 3,
            "output_dir": str(tmp_path / "results"),
        }))
        assert cli_main(["experiment", "--config", str(config)]) == 1
        # Both samples of cell 0 fail: one line names the cell and counts them.
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if "failed" in line]
        assert len(failed) == 1
        assert failed[0].startswith("cell 0 er n=5: 2/2 samples failed; ")
        assert "no connected sample within 3 retries" in failed[0]

    def test_all_failed_run(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_tiny_config(out_dir)))
        assert cli_main(["experiment", "--config", str(config)]) == 0
        assert len(list(out_dir.glob("*.csv"))) == len(TABLE_FILES)
        config.write_text(json.dumps(_tiny_config(
            out_dir, models=[{"model": "er", "n": [5], "p": [0.0]}], max_retries=3,
        )))
        capsys.readouterr()
        # Every sample fails: the run reports its cells, exits 1 and leaves
        # no roll-up of the earlier run behind.
        assert cli_main(["experiment", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "cell 0 er n=5: 2/2 samples failed; " in err
        assert "done: 0/2 samples ok; no tables written" in err
        assert not list(out_dir.glob("*.csv"))
        assert len(list((out_dir / "samples").glob("*.json"))) == 2

    def test_out_of_memory_exit_code(self, monkeypatch, capsys):
        def generate(cfg):
            raise MemoryError("Unable to allocate 37.3 GiB")

        monkeypatch.setattr(cli, "generate", generate)
        rc = cli_main(["generate", "--model", "er", "--n", "200000",
                       "--param", "p=0.1"])
        assert rc == 2
        assert "error: out of memory: Unable to allocate" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": [{"model": "zz"}]}))
        assert cli_main(["experiment", "--config", str(config)]) == 2
        assert cli_main(["experiment", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("key, value", [("max_retries", 0), ("confidence", 1.5)])
    def test_invalid_run_setting_fails_before_any_work(self, tmp_path, capsys, key, value):
        out_dir = tmp_path / "results"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_tiny_config(out_dir)))
        assert cli_main(["experiment", "--config", str(config)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
        config.write_text(json.dumps(_tiny_config(out_dir, **{key: value})))
        capsys.readouterr()
        assert cli_main(["experiment", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config key '{key}' must be")
        # Nothing ran: the earlier run's tables are still there.
        assert {p.name: p.read_bytes() for p in out_dir.glob("*.csv")} == before

    @pytest.mark.parametrize("body, message", [
        ("a,b\n1,2\n2\n3,1\n", "line 3: no value in column 'b'"),
        ("a,b\n1,2\n2,3\n\n4\n", "line 5: no value in column 'b'"),
        ("a,b\n1,2\n2,nan\n3,1\n4,5\n", "line 3: column 'b' is not a finite number: 'nan'"),
        ("a,b\n1,2\n-inf,3\n", "line 3: column 'a' is not a finite number: '-inf'"),
        ("a,b\n1,2\n2,x\n", "line 3: column 'b' is not a finite number: 'x'"),
    ], ids=["short", "short_after_blank_line", "nan", "minus_inf", "not_a_number"])
    def test_correlate_bad_row_exit_code(self, tmp_path, capsys, body, message):
        path = tmp_path / "scores.csv"
        path.write_text(body)
        assert cli_main(["correlate", str(path), "--x", "a", "--y", "b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("entry, message", OUT_OF_RANGE + NOT_NUMBERS,
                             ids=OUT_OF_RANGE_IDS + NOT_NUMBERS_IDS)
    def test_plan_time_range_error_keeps_earlier_run(self, tmp_path, capsys, entry,
                                                     message):
        out_dir = tmp_path / "results"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_tiny_config(out_dir)))
        assert cli_main(["experiment", "--config", str(config)]) == 0
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        config.write_text(json.dumps(_tiny_config(out_dir, models=[entry])))
        capsys.readouterr()
        assert cli_main(["experiment", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("model, params, message", [
        ("er", ["p=0.3", "q=1"], "unknown parameter 'q' for model 'er'"),
        ("sf", ["k=2", "p=0.1"], "unknown parameter 'p' for model 'sf'"),
        ("sw", ["k=4", "p=0.1", "kappa=2"], "unknown parameter 'kappa' for model 'sw'"),
        ("gr", ["kappa=1.5", "c_div=2"], "unknown parameter 'c_div' for model 'gr'"),
        # kg's initiator_name is recorded beside kg parameters only.
        ("cs", ["p_c=0.5", "p=0.5", "c=2", "initiator_name=a"],
         "unknown parameter 'initiator_name' for model 'cs'"),
        ("er", ["p=x"], "model 'er' parameter 'p' must be a number, got 'x'"),
        ("gr", ["kappa=True"], "model 'gr' parameter 'kappa' must be a number, got 'True'"),
        ("gr", ["kappa=nan"], "kappa must exceed 1, got nan"),
    ], ids=["er_unknown", "sf_unknown", "sw_unknown", "gr_unknown", "cs_unknown",
            "er_p_text", "gr_kappa_text", "gr_kappa_nan"])
    def test_generate_rejects_bad_params(self, tmp_path, capsys, model, params, message):
        out = tmp_path / "x.edges"
        rc = cli_main(["generate", "--model", model, "--n", "16",
                       *[arg for p in params for arg in ("--param", p)], "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_generate_unconnected_failure_exit_code(self, tmp_path):
        rc = cli_main([
            "generate", "--model", "er", "--n", "5", "--param", "p=0",
            "--connected", "--max-retries", "3",
            "--out", str(tmp_path / "x.edges"),
        ])
        assert rc == 1

    def test_generate_invalid_cs_parameter_exit_code(self, tmp_path, capsys):
        rc = cli_main([
            "generate", "--model", "cs", "--n", "10", "--param", "p_c=1.5",
            "--param", "p=0.5", "--param", "c=2", "--out", str(tmp_path / "x.edges"),
        ])
        assert rc == 2
        assert "membership probability must be in [0, 1]" in capsys.readouterr().err

    def test_generate_missing_parameter_exit_code(self, tmp_path, capsys):
        rc = cli_main(["generate", "--model", "cs", "--n", "10",
                       "--out", str(tmp_path / "x.edges")])
        assert rc == 2
        assert "error: model 'cs' is missing parameter p_c, p, c" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("model, params", [
        ("sf", ["k=2.5"]), ("sw", ["k=4.0", "p=0.1"]), ("cs", ["p_c=0.5", "p=0.5", "c=2.5"]),
    ])
    def test_generate_fractional_whole_parameter_exit_code(self, tmp_path, capsys, model,
                                                           params):
        out = tmp_path / "x.edges"
        rc = cli_main(["generate", "--model", model, "--n", "30", "--seed", "1",
                       *[arg for p in params for arg in ("--param", p)], "--out", str(out)])
        assert rc == 2
        assert "must be a whole number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("initiator, params, message", [
        ("as-routeviews", [], "model 'kg' is missing parameter 'k'"),
        ("as-routeviews", ["k=0"], "model 'kg' parameter 'k' must be >= 1, got 0"),
        ("as-routeviews", ["k=-1"], "model 'kg' parameter 'k' must be >= 1, got -1"),
        ("as-routeviews", ["k=2.5"], "model 'kg' parameter 'k' must be a whole number, got 2.5"),
        ("nope", ["k=3"], "unknown Kronecker initiator 'nope'"),
    ], ids=["no_k", "k_0", "k_negative", "k_fractional", "unknown_initiator"])
    def test_generate_kronecker_plan_error_exit_code(self, tmp_path, capsys, initiator,
                                                     params, message):
        out = tmp_path / "kg.edges"
        rc = cli_main(["generate", "--model", "kg",
                       "--initiators", "configs/kronecker_initiators.json",
                       "--initiator", initiator,
                       *[arg for p in params for arg in ("--param", p)], "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_generate_kronecker(self, tmp_path, capsys):
        rc = cli_main([
            "generate", "--model", "kg",
            "--initiators", "configs/kronecker_initiators.json",
            "--initiator", "as-routeviews", "--param", "k=5",
            "--out", str(tmp_path / "kg.edges"),
        ])
        assert rc == 0
        text = (tmp_path / "kg.edges").read_text()
        assert text.startswith("# n=32")
        initiator = KroneckerInitiator("as-routeviews", (0.987, 0.571, 0.571, 0.049))
        assert text == format_edge_list(kronecker(initiator, 5, 0))
