"""The benchmark's workloads: one fixed cdlab k-sweep each.

Inputs are deterministic.  Every workload is a plain `cdlab` command line;
the only thing that varies between runs is the report path.
"""

import os
from dataclasses import dataclass

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    flags: tuple
    k_values: tuple
    check: object          # one of the oracles.check_* functions
    nodes_per_k: int = 4   # node rule m = max(nodes_per_k * k, min_nodes)
    min_nodes: int = 256
    side_files: bool = False

    def node_count(self, k):
        return max(self.nodes_per_k * k, self.min_nodes)

    def argv(self, report_path):
        return [self.experiment, *self.flags,
                "--nodes-per-k", str(self.nodes_per_k),
                "--min-nodes", str(self.min_nodes),
                "--k", ",".join(str(k) for k in self.k_values),
                "--out", report_path]

    def side_paths(self, report_path, k):
        """(heatmap, density) paths the heatmap experiment writes for k."""
        stem, ext = os.path.splitext(report_path)
        return f"{stem}_heatmap_k{k}{ext}", f"{stem}_density_k{k}{ext}"

    def output_paths(self, report_path):
        paths = [report_path]
        if self.side_files:
            for k in self.k_values:
                paths.extend(self.side_paths(report_path, k))
        return paths

    def check_report(self, report_path):
        """(ok_by_k, errors) for the report at report_path."""
        rows, footer = oracles.read_report(report_path)
        return self.check(rows, footer, self.k_values, self.node_count,
                          lambda k: self.side_paths(report_path, k))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="szego-interval",
            experiment="szego",
            flags=("--measure", "interval", "--symbol-f", "x", "--symbol-g", "square"),
            k_values=(64, 128, 256, 512),
            check=oracles.check_szego_interval,
        ),
        Workload(
            name="offdiag-circle",
            experiment="offdiag",
            flags=("--measure", "circle"),
            k_values=(32, 64, 128, 256),
            check=oracles.check_offdiag_circle,
            nodes_per_k=16,
        ),
        Workload(
            name="bm-circle",
            experiment="bm",
            flags=("--measure", "circle"),
            k_values=(64, 128, 256, 512),
            check=oracles.check_bm_circle,
        ),
        Workload(
            name="heatmap-circle",
            experiment="heatmap",
            flags=("--measure", "circle"),
            k_values=(32, 64, 128),
            check=oracles.check_heatmap_circle,
            side_files=True,
        ),
    )
}
