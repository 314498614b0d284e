import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cdlab
from cdlab import ExperimentConfig, MeasureSpec, NumericalFailure, fit_rate, run
from cdlab.cli import main
from cdlab.experiments import resolve_region
from cdlab.measure import circle_lebesgue


def read_report(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    footer = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return rows, footer


class TestFitRate:
    def test_inverse_k(self):
        fit = fit_rate([(k, 3.7 / k) for k in (8, 16, 32, 64)])
        assert abs(fit.slope + 1.0) <= 1e-12
        assert fit.residual <= 1e-12

    def test_inverse_sqrt_k(self):
        fit = fit_rate([(k, 0.2 / np.sqrt(k)) for k in (8, 16, 32)])
        assert abs(fit.slope + 0.5) <= 1e-12

    def test_constant_series(self):
        fit = fit_rate([(k, 4.0) for k in (8, 16, 32, 64)])
        assert abs(fit.slope) <= 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_rate([(8, 1.0), (16, 0.5)])

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_rate([(8, 1.0), (16, 0.0), (32, 0.1)])


class TestConfig:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="specgap", k_values=[8])

    def test_unsorted_k_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="szego", k_values=[32, 16])

    def test_empty_k_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="szego", k_values=[])

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="algebra", k_values=[8], p=0.5)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            ExperimentConfig(experiment="algebra", k_values=[8],
                             symbol_specs={"f": "warble"})

    def test_bad_region_rejected(self):
        with pytest.raises(ValueError, match="region"):
            ExperimentConfig(experiment="offdiag", k_values=[8, 16, 32],
                             regions={"a": "disk:0,1"})

    def test_spectral_name_accepted_for_szego(self):
        cfg = ExperimentConfig(experiment="szego", k_values=[8],
                               symbol_specs={"f": "cos", "g": "abs"})
        assert cfg.symbol_specs["g"] == "abs"

    def test_from_json_file(self, tmp_path):
        doc = {
            "experiment": "algebra",
            "k_values": [8, 16],
            "measure_spec": {"kind": "circle", "nodes_per_k": 4, "min_nodes": 64},
            "symbol_specs": {"f": "cos", "g": "cos"},
            "p": 2.0,
            "regions": {},
            "output_path": str(tmp_path / "r.csv"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg.experiment == "algebra"
        assert cfg.measure_spec.min_nodes == 64

    def test_node_count_rule(self):
        spec = MeasureSpec(kind="circle", nodes_per_k=4, min_nodes=256)
        assert spec.node_count(16) == 256
        assert spec.node_count(128) == 512

    @pytest.mark.parametrize("fields", [
        {"kind": "circel"}, {"nodes_per_k": -1}, {"min_nodes": 0},
        {"nodes_per_k": 2.5}, {"min_nodes": "16"},
    ], ids=["kind", "nodes_per_k", "min_nodes", "fractional-nodes_per_k", "string-min_nodes"])
    def test_bad_measure_spec_rejected(self, fields):
        with pytest.raises(ValueError):
            MeasureSpec(**fields)


class TestRegions:
    def test_arc_selector(self):
        mu = circle_lebesgue(64)
        idx = resolve_region("arc:0,1.5707963267948966", mu)
        assert len(idx) == 16

    def test_bad_selector_rejected(self):
        mu = circle_lebesgue(8)
        with pytest.raises(ValueError):
            resolve_region("disk:0,1", mu)
        with pytest.raises(ValueError):
            resolve_region("arc:0", mu)


class TestRunSzego:
    def test_gap_is_half_over_k(self, tmp_path):
        out = tmp_path / "szego.csv"
        cfg = ExperimentConfig(experiment="szego", k_values=[16, 32, 64],
                               symbol_specs={"f": "cos", "g": "square"},
                               output_path=str(out))
        rows = run(cfg)
        for r in rows:
            k = r["k"]
            assert abs(r["quantity"] - (k - 1) / (2.0 * k)) <= 1e-12
            assert abs(r["gap"] - 1.0 / (2.0 * k)) <= 1e-12
        file_rows, _ = read_report(out)
        assert [int(r["k"]) for r in file_rows] == [16, 32, 64]
        assert float(file_rows[0]["limit"]) == pytest.approx(0.5)


class TestRunAlgebra:
    def test_defect_column_closed_form(self, tmp_path):
        out = tmp_path / "alg.csv"
        cfg = ExperimentConfig(experiment="algebra", k_values=[16, 32],
                               symbol_specs={"f": "cos", "g": "cos"}, p=2.0,
                               output_path=str(out))
        rows = run(cfg)
        for r in rows:
            assert abs(r["quantity"] - 1.0 / np.sqrt(8.0 * r["k"])) <= 1e-10


class TestRunOffdiag:
    def test_footer_has_slope(self, tmp_path):
        out = tmp_path / "off.csv"
        cfg = ExperimentConfig(experiment="offdiag", k_values=[16, 32, 64, 128],
                               output_path=str(out))
        run(cfg)
        rows, footer = read_report(out)
        assert len(rows) == 4
        slopes = [ln for ln in footer if ln.startswith("# fitted_slope")]
        assert len(slopes) == 1
        slope = float(slopes[0].split(",")[1])
        assert -1.1 <= slope <= -0.9


class TestRunHeatmap:
    # side files take the report's extension, or .csv when it has none
    @pytest.mark.parametrize("out", ["hm.csv", "hm", "./hm"])
    def test_side_files_written(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        cfg = ExperimentConfig(experiment="heatmap", k_values=[4],
                               measure_spec=MeasureSpec(kind="circle", min_nodes=16),
                               output_path=out)
        rows = run(cfg)
        assert abs(rows[0]["quantity"] - 1.0) <= 1e-10
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["hm_density_k4.csv", "hm_heatmap_k4.csv", out.removeprefix("./")])


class TestRunBm:
    def test_interval_trend(self, tmp_path):
        out = tmp_path / "bm.csv"
        cfg = ExperimentConfig(experiment="bm", k_values=[8, 16, 32],
                               measure_spec=MeasureSpec(kind="interval"),
                               output_path=str(out))
        rows = run(cfg)
        vals = [r["quantity"] for r in rows]
        assert vals == sorted(vals, reverse=True)


class TestRunSymbolDistance:
    def test_limit_from_equilibrium(self, tmp_path):
        out = tmp_path / "sd.csv"
        cfg = ExperimentConfig(experiment="symbol_distance", k_values=[32, 64],
                               symbol_specs={"f": "cos", "g": "one"},
                               output_path=str(out))
        rows = run(cfg)
        # limit = int |cos - 1| d(uniform) = 1 on the circle
        assert rows[0]["limit"] == pytest.approx(1.0)


class TestDeterminism:
    def test_bit_identical_apart_from_seconds(self, tmp_path):
        def strip_seconds(path):
            rows, footer = read_report(path)
            return [(r["k"], r["quantity"], r["limit"], r["gap"]) for r in rows], footer

        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run(ExperimentConfig(experiment="offdiag", k_values=[16, 32, 64],
                                 output_path=str(out)))
        assert strip_seconds(out1) == strip_seconds(out2)


class TestNumericalFailure:
    def test_offending_k_is_reported(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="szego", k_values=[64],
            measure_spec=MeasureSpec(kind="circle", nodes_per_k=0, min_nodes=16),
            output_path=str(tmp_path / "x.csv"))
        with pytest.raises(NumericalFailure) as err:
            run(cfg)
        assert err.value.k == 64


class TestCli:
    def test_flag_run(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(["szego", "--k", "8,16", "--measure", "circle",
                     "--symbol-f", "cos", "--symbol-g", "square",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_config_run(self, tmp_path):
        out = tmp_path / "cli2.csv"
        cfg = {"experiment": "algebra", "k_values": [8],
               "symbol_specs": {"f": "cos", "g": "sin"},
               "output_path": str(out)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["algebra", "--config", str(cfg_path)]) == 0
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "szego", "k_values": []}))
        assert main(["szego", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nf.csv"
        code = main(["szego", "--k", "64", "--nodes-per-k", "0",
                     "--min-nodes", "16", "--out", str(out)])
        assert code == 3
        assert "k=64" in capsys.readouterr().err

    def test_measure_typo_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "typo.csv"
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps({"experiment": "szego", "k_values": [8],
                                        "measure_spec": {"kind": "circel"},
                                        "output_path": str(out)}))
        assert main(["szego", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_node_count_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "zero.csv"
        code = main(["szego", "--k", "8", "--nodes-per-k", "0", "--min-nodes", "0",
                     "--out", str(out)])
        assert code == 2
        assert "min_nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_config_typo_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "typo.csv"
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps({"experiment": "szego", "k_values": [8],
                                        "symbol_spec": {"f": "x2"},
                                        "output_path": str(out)}))
        assert main(["szego", "--config", str(cfg_path)]) == 2
        assert "symbol_spec" in capsys.readouterr().err
        assert not out.exists()

    def test_offdiag_two_k_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "off2.csv"
        assert main(["offdiag", "--k", "8,16", "--out", str(out)]) == 2
        assert "at least 3 k values" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_k_is_config_error(self, tmp_path, capsys):
        # three copies of one k pass the three-k rule but fit a slope from one k
        out = tmp_path / "off888.csv"
        assert main(["offdiag", "--k", "8,8,8", "--out", str(out)]) == 2
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,bad_k", [
        # no node falls in the tiny arc, so the mass is 0 and has no log rate
        (["offdiag", "--k", "8,16,32", "--region-a", "arc:0.001,0.002"], 8),
        # k=4 writes its side files before k=64 runs out of nodes
        (["heatmap", "--k", "4,64", "--nodes-per-k", "0", "--min-nodes", "16"], 64),
    ], ids=["offdiag-empty-region", "heatmap-late-k"])
    def test_failed_run_leaves_no_new_file(self, tmp_path, capsys, argv, bad_k):
        # the failed run must leave the previous report as it was
        out = tmp_path / "prev.csv"
        out.write_text("previous\n")
        assert main([*argv, "--out", str(out)]) == 3
        assert f"k={bad_k}" in capsys.readouterr().err
        assert out.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("experiment", ["szego", "heatmap"])
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, experiment):
        out = tmp_path / "missing" / "x.csv"
        code = main([experiment, "--k", "4", "--min-nodes", "16", "--out", str(out)])
        assert code == 2
        assert "output error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_for_other_experiment_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "bm.csv"
        cfg_path = tmp_path / "bm.json"
        cfg_path.write_text(json.dumps({"experiment": "bm", "k_values": [8],
                                        "output_path": str(out)}))
        assert main(["szego", "--config", str(cfg_path)]) == 2
        assert "'bm'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields,message", [
        ({"symbol_specs": {"f": 3}}, "symbol_specs must map names to strings"),
        ({"regions": {"a": 5}}, "regions must map names to strings"),
        ({"symbol_specs": "cos"}, "symbol_specs must map names to strings"),
        ({"symbol_specs": {"F": "x2"}}, "unknown symbol_specs keys: F"),
        ({"regions": {"A": "arc:0,1"}}, "unknown regions keys: A"),
        ({"k_values": [8.7]}, "k_values must be integers"),
    ], ids=["symbol-int", "region-int", "symbols-str", "symbol-key-typo", "region-key-typo",
            "fractional-k"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, fields, message):
        out = tmp_path / "bad.csv"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"experiment": "szego", "k_values": [8],
                                        "output_path": str(out), **fields}))
        assert main(["szego", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_nonfinite_p_is_config_error(self, tmp_path, capsys, p):
        out = tmp_path / "p.csv"
        assert main(["algebra", "--k", "8", "--p", p, "--out", str(out)]) == 2
        assert "p must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_symbol_is_config_error(self, tmp_path, capsys):
        code = main(["szego", "--k", "8", "--symbol-f", "nope",
                     "--out", str(tmp_path / "y.csv")])
        assert code == 2
        assert "unknown symbol" in capsys.readouterr().err


class TestEnvironment:
    def test_removed_switches_are_ignored(self):
        # cdlab has one compute path; the former backend and thread switches
        # must neither select anything nor fail the import
        env = dict(os.environ, CDLAB_BACKEND="numba", CDLAB_THREADS="3",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cdlab.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", "import cdlab; print(cdlab.backend_name())"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numpy"
