"""Command line front end: `cdlab <experiment> --config cfg.json` or flags.

Each subcommand takes the k, measure and output flags plus the settings its
experiment reads (`experiments.SETTINGS`).  Flags and a JSON config both go
through `ExperimentConfig.from_dict`; `--config` takes no other flag.

Exit codes: 0 success, 2 configuration error or an output that cannot be
written, 3 numerical failure (the offending k is reported on stderr).
"""

import argparse
import sys

from .experiments import MEASURE_KINDS, SETTINGS, ExperimentConfig, NumericalFailure, run


_DEFAULT_K = "16,32,64"


def _flags(reads):
    """(flag, config field it sets, add_argument keywords) of the experiment
    whose SETTINGS entry is reads; "field.key" is a key of a nested field."""
    yield "--k", "k_values", {
        "help": f"comma-separated strictly ascending k (default {_DEFAULT_K})"}
    yield "--measure", "measure_spec.kind", {"choices": MEASURE_KINDS,
                                             "help": " | ".join(MEASURE_KINDS)}
    yield "--nodes-per-k", "measure_spec.nodes_per_k", {
        "type": int, "help": "node count rule: max(nodes_per_k*k, min_nodes)"}
    yield "--min-nodes", "measure_spec.min_nodes", {"type": int}
    for key, default in reads.get("symbol_specs", {}).items():
        yield f"--symbol-{key}", f"symbol_specs.{key}", {"help": f"default {default}"}
    if "p" in reads:
        yield "--p", "p", {"type": float, "help": f"Schatten exponent (default {reads['p']})"}
    for key in reads.get("regions", {}):
        yield f"--region-{key}", f"regions.{key}", {
            "help": "arc:start,end or interval:lo,hi (default per support)"}
    yield "--out", "output_path", {"help": "output CSV path"}


class _SubcommandParser(argparse.ArgumentParser):
    """Fails on an argument its subcommand does not take, with its usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="k-sweep experiments for kernel/Toeplitz limit theorems",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, parser_class=_SubcommandParser)
    for name, reads in SETTINGS.items():
        # no flag has a parser default, so the namespace holds only the flags given
        sp = sub.add_parser(name, help=f"run the {name} sweep",
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config file (takes no other flag)")
        for flag, dest, kwargs in _flags(reads):
            sp.add_argument(flag, dest=dest, metavar=dest.rpartition(".")[2].upper(), **kwargs)
    return parser


def _config_from_args(args):
    """The config of --config, or of the flags given, through the same from_dict."""
    given = {dest: value for dest, value in vars(args).items() if dest != "experiment"}
    if "config" in given:
        others = [flag for flag, dest, _ in _flags(SETTINGS[args.experiment]) if dest in given]
        if others:
            raise ValueError(f"--config takes no other flag, got {', '.join(others)}")
        cfg = ExperimentConfig.from_json_file(given["config"])
        if cfg.experiment != args.experiment:
            raise ValueError(f"config is for {cfg.experiment!r}, not {args.experiment!r}")
        return cfg
    doc = {"experiment": args.experiment, "k_values": _DEFAULT_K}
    for dest, value in given.items():
        field, _, key = dest.partition(".")
        if key:
            doc.setdefault(field, {})[key] = value
        else:
            doc[field] = value
    doc["k_values"] = [int(t) for t in doc["k_values"].split(",") if t.strip()]
    return ExperimentConfig.from_dict(doc)


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
