"""Tests of the benchmark's oracles, report parsing and tracing.

    PYTHONPATH=src python -m pytest -q kbench

The in-process sweeps use small k so the whole module runs in a few seconds.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
import spans
from workloads import WORKLOADS

import cdlab.experiments
import cdlab.kernel
from cdlab import cli

HERE = Path(__file__).resolve().parent

SMALL = {
    "szego-interval": {"k_values": (8, 16, 32)},
    "offdiag-circle": {"k_values": (8, 16, 32)},
    "bm-circle": {"k_values": (8, 16, 32)},
    "heatmap-circle": {"k_values": (2, 4, 8), "min_nodes": 16},
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def report_text(rows, footer=()):
    lines = ["k,n_k,quantity,limit,gap,seconds"]
    for k, q, lim in rows:
        lines.append(f"{k},{k},{q!r},{lim!r},{abs(q - lim)!r},0.001000")
    lines.extend(f"# {key},{val!r}" for key, val in footer)
    return "\n".join(lines) + "\n"


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 300])
    def test_jacobi_trace_equals_gauss_node_mean(self, n):
        assert abs(oracles.szego_interval_x2(n) - oracles.szego_interval_x2_nodes(n)) <= 1e-14

    def test_jacobi_trace_small_case(self):
        # J_2 = [[0, 1/sqrt(3)], [1/sqrt(3), 0]]: tr(J^2)/2 = 1/3
        assert abs(oracles.szego_interval_x2(2) - 1.0 / 3.0) <= 1e-16

    @pytest.mark.parametrize("n", [2, 64, 512])
    def test_jacobi_trace_rational_form(self, n):
        # sum_{j<n} 1/(4j^2 - 1) telescopes, leaving (n - 1)/(2n - 1),
        # which tends to the arcsine limit 1/2 with gap 1/(2(2n - 1))
        assert abs(oracles.szego_interval_x2(n) - (n - 1) / (2 * n - 1)) <= 1e-15

    def test_quarter_arcs(self):
        ia, ib = oracles.circle_quarter_arcs(16)
        assert list(ia) == [0, 1, 2, 3]
        assert list(ib) == [8, 9, 10, 11]

    @pytest.mark.parametrize("n,m", [(4, 16), (8, 64), (13, 52)])
    def test_trace_formula_matches_dense_kernel_sum(self, n, m):
        z = np.exp(2j * np.pi * np.arange(m) / m)
        v = z[:, None] ** np.arange(n)[None, :]
        kern = v @ v.conj().T
        ia, ib = oracles.circle_quarter_arcs(m)
        dense = np.sum(np.abs(kern[np.ix_(ia, ib)]) ** 2) / (m * m) / n
        assert abs(oracles.offdiag_circle_mass(n, m) - dense) <= 1e-14

    def test_circle_diagonal_kernel_is_n(self):
        n, m = 12, 8 * 48
        z = np.exp(2j * np.pi * np.arange(m) / m)
        diag = np.sum(np.abs(z[:, None] ** np.arange(n)[None, :]) ** 2, axis=1)
        assert abs(math.log(np.max(diag)) / n - oracles.bm_circle(n, n)) <= 1e-15


class TestParseReport:
    def test_rows_and_footer(self):
        rows, footer = oracles.parse_report(
            report_text([(8, 0.25, 0.0), (16, 0.125, 0.0)],
                        [("fitted_slope", -1.0), ("fit_residual", 1e-4)]))
        assert sorted(rows) == [8, 16]
        assert rows[16]["quantity"] == 0.125 and rows[16]["n_k"] == 16
        assert footer == {"fitted_slope": -1.0, "fit_residual": 1e-4}

    def test_malformed_row_reads_as_missing(self):
        text = report_text([(8, 0.25, 0.0)]) + "16,16,nan?,0.0,0.0,0.1\n17,17\n"
        rows, footer = oracles.parse_report(text)
        assert sorted(rows) == [8]
        assert footer == {}

    def test_missing_file(self, tmp_path):
        assert oracles.read_report(str(tmp_path / "absent.csv")) == ({}, {})


class TestChecks:
    ks = (8, 16, 32)

    def szego(self, rows):
        return oracles.check_szego_interval(rows, {}, self.ks, None, None)

    def test_szego_good_report(self):
        rows, _ = oracles.parse_report(
            report_text([(k, oracles.szego_interval_x2(k), 0.5) for k in self.ks]))
        ok, errors = self.szego(rows)
        assert all(ok.values()) and not errors

    def test_szego_wrong_and_missing_rows_fail(self):
        good = [(k, oracles.szego_interval_x2(k), 0.5) for k in self.ks]
        bad = [good[0], (16, good[1][1] * (1 + 1e-8), 0.5)]
        rows, _ = oracles.parse_report(report_text(bad))
        ok, errors = self.szego(rows)
        assert ok == {8: True, 16: False, 32: False}
        assert len(errors) == 2

    def test_szego_wrong_limit_fails(self):
        rows, _ = oracles.parse_report(
            report_text([(k, oracles.szego_interval_x2(k), 0.49) for k in self.ks]))
        ok, _ = self.szego(rows)
        assert not any(ok.values())

    def test_offdiag_slope_outside_range_fails_every_row(self):
        body = [(k, oracles.offdiag_circle_mass(k, 16 * k), 0.0) for k in self.ks]
        for slope, expect in ((-1.0, True), (-0.5, False)):
            rows, footer = oracles.parse_report(report_text(body, [("fitted_slope", slope)]))
            ok, _ = oracles.check_offdiag_circle(rows, footer, self.ks, lambda k: 16 * k, None)
            assert all(v is expect for v in ok.values())

    def test_bm_check(self):
        rows, _ = oracles.parse_report(
            report_text([(k, math.log(k) / k, 0.0) for k in self.ks[:2]]))
        ok, _ = oracles.check_bm_circle(rows, {}, self.ks, None, None)
        assert ok == {8: True, 16: True, 32: False}

    def test_heatmap_side_files(self, tmp_path):
        k, m = 2, 4
        hm, dens = tmp_path / "h.csv", tmp_path / "d.csv"
        lines = ["a,b,re,im,abs2"] + [
            f"{a},{b},0.0,0.0,{float(k * k if a == b else 0.5)!r}"
            for a in range(m) for b in range(m)]
        hm.write_text("\n".join(lines) + "\n")
        dens.write_text("re,im,weight,density\n" + "1.0,0.0,0.25,0.25\n" * m)
        rows, _ = oracles.parse_report(report_text([(k, 1.0, 1.0)]))

        def check():
            return oracles.check_heatmap_circle(rows, {}, (k,), lambda _: m,
                                                lambda _: (str(hm), str(dens)))[0]

        assert check() == {k: True}
        dens.write_text("re,im,weight,density\n" + "1.0,0.0,0.25,0.25\n" * (m - 1))
        assert check() == {k: False}


class TestWorkloadsAgainstCdlab:
    """Small sweeps through the public entry point pass the oracles."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_small_sweep_passes(self, name, tmp_path):
        w = small(name)
        report = str(tmp_path / "report.csv")
        assert cli.main(w.argv(report)) == 0
        ok, errors = w.check_report(report)
        assert ok == dict.fromkeys(w.k_values, True), errors

    def test_perturbed_quantity_is_caught(self, tmp_path):
        w = small("bm-circle")
        report = tmp_path / "report.csv"
        assert cli.main(w.argv(str(report))) == 0
        text = report.read_text().replace("0.2599", "0.2598", 1)
        report.write_text(text)
        ok, _ = w.check_report(str(report))
        assert ok == {8: False, 16: True, 32: True}


def backend_parents(spans_):
    """Innermost non-backend span names enclosing each _backend span."""
    found = set()
    for s in spans_:
        if s[0].startswith("_backend."):
            p = s[3]
            while p >= 0 and spans_[p][0].startswith("_backend."):
                p = spans_[p][3]
            found.add(spans_[p][0] if p >= 0 else None)
    return found


class TestTracing:
    def traced(self, name, tmp_path):
        w = small(name)
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            rc = tracer.call(spans.MAIN, cli.main, w.argv(str(tmp_path / "r.csv")))
        finally:
            restore()
        assert rc == 0
        return tracer

    def test_restore_puts_originals_back(self, tmp_path):
        before = (cdlab.kernel.kernel_table, cdlab.experiments.orthonormalize)
        self.traced("heatmap-circle", tmp_path)
        assert (cdlab.kernel.kernel_table, cdlab.experiments.orthonormalize) == before

    def test_heatmap_layers(self, tmp_path):
        tracer = self.traced("heatmap-circle", tmp_path)
        m = spans.layer_metrics(tracer.spans, tracer.values)
        for key in ("measure.build_s", "basis.orthonormalize_s", "kernel.kernel_table_s",
                    "kernel.bergman_mass_s", "kernel.write_heatmap_s",
                    "kernel.write_density_s"):
            assert m[key] > 0.0, key
        assert m["operator.toeplitz_s"] == 0.0 and m["kernel.bm_constant_s"] == 0.0
        assert 0.0 <= m["experiments.self_s"] < m["sweep_s"]
        assert m["basis.orthonormality_defect"] < 1e-12
        assert m["kernel.pushforward_residual"] < 1e-12
        names = {s[0] for s in tracer.spans}
        assert len([s for s in tracer.spans if s[0] == "basis.orthonormalize"]) == 3
        assert "_backend.pair_mass" in names

    def test_backend_reached_only_inside_kernel_spans(self, tmp_path):
        parents = set()
        for name in sorted(WORKLOADS):
            parents |= backend_parents(self.traced(name, tmp_path).spans)
        # basis evaluation off the nodes runs the backend recurrence, but on
        # these workloads only bm_constant asks for it
        assert parents == {"kernel.bergman_mass", "kernel.bm_constant"}

    def test_szego_layers(self, tmp_path):
        tracer = self.traced("szego-interval", tmp_path)
        m = spans.layer_metrics(tracer.spans, tracer.values)
        assert m["operator.toeplitz_s"] > 0.0 and m["operator.spectral_statistic_s"] > 0.0
        assert m["kernel.kernel_table_s"] == 0.0
        assert m["operator.toeplitz_asymmetry"] < 1e-12

    def test_self_time_subtracts_children(self):
        spans_ = [[spans.MAIN, 0.0, 10.0, -1], ["basis.orthonormalize", 1.0, 4.0, 0],
                  ["_backend.eval_recurrence", 2.0, 3.0, 1], [spans.DIAG, 4.0, 5.0, 0]]
        m = spans.layer_metrics(spans_, {})
        assert m["experiments.self_s"] == 6.0
        assert m["sweep_s"] == 9.0
        assert m["basis.orthonormalize_s"] == 3.0

    def test_peak_recorder(self, tmp_path):
        rec = spans.PeakRecorder()
        restore = spans.install(rec)
        try:
            assert cli.main(small("bm-circle").argv(str(tmp_path / "r.csv"))) == 0
        finally:
            restore()
        peaks = spans.peak_metrics(rec.peaks)
        assert peaks["basis.orthonormalize_peak_mib"] > 0.0
        assert peaks["kernel.bm_constant_peak_mib"] > 0.0
        assert peaks["kernel.kernel_table_peak_mib"] == 0.0
        assert not tracemalloc.is_tracing()


def test_exits_without_result_where_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "kbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "kbench" / "run.py"),
                           "--workload", "bm-circle", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_per_layer_names_match_benchmark_json():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    spans_ = [[spans.MAIN, 0.0, 1.0, -1]]
    produced = (set(spans.layer_metrics(spans_, {})) - {"sweep_s"}
                | set(spans.peak_metrics({}))
                | {"experiments.report_bytes", "experiments.trace_overhead_s"})
    assert produced == declared
