"""Command line front end: `cdlab <experiment> --config cfg.json` or flags.

Exit codes: 0 success, 2 configuration error or an output that cannot be
written, 3 numerical failure (the offending k is reported on stderr).
"""

import argparse
import sys

from .experiments import (EXPERIMENTS, MEASURE_KINDS, ExperimentConfig, MeasureSpec,
                          NumericalFailure, run)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="k-sweep experiments for kernel/Toeplitz limit theorems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} sweep")
        sp.add_argument("--config", help="JSON config file (overrides the flags)")
        sp.add_argument("--k", default="16,32,64",
                        help="comma-separated strictly ascending k values")
        sp.add_argument("--measure", default="circle",
                        choices=MEASURE_KINDS)
        sp.add_argument("--nodes-per-k", type=int, default=4,
                        help="node count rule: max(nodes_per_k*k, min_nodes)")
        sp.add_argument("--min-nodes", type=int, default=256)
        sp.add_argument("--symbol-f", default=None, help="symbol name for f")
        sp.add_argument("--symbol-g", default=None,
                        help="symbol name for g (szego: spectral function)")
        sp.add_argument("--p", type=float, default=2.0, help="Schatten exponent")
        sp.add_argument("--region-a", default=None,
                        help="arc:start,end or interval:lo,hi")
        sp.add_argument("--region-b", default=None)
        sp.add_argument("--out", default="report.csv", help="output CSV path")
    return parser


def _config_from_args(args):
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
        if cfg.experiment != args.experiment:
            raise ValueError(f"config is for {cfg.experiment!r}, not {args.experiment!r}")
        return cfg
    symbol_specs = {}
    if args.symbol_f:
        symbol_specs["f"] = args.symbol_f
    if args.symbol_g:
        symbol_specs["g"] = args.symbol_g
    regions = {}
    if args.region_a:
        regions["a"] = args.region_a
    if args.region_b:
        regions["b"] = args.region_b
    return ExperimentConfig(
        experiment=args.experiment,
        k_values=[int(t) for t in args.k.split(",") if t.strip()],
        measure_spec=MeasureSpec(kind=args.measure, nodes_per_k=args.nodes_per_k,
                                 min_nodes=args.min_nodes),
        symbol_specs=symbol_specs,
        p=args.p,
        regions=regions,
        output_path=args.out,
    )


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        rows = run(cfg)
    except NumericalFailure as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {cfg.output_path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
