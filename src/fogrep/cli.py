"""Command line interface.

Subcommands: ``ingest`` converts GeoLife trajectories into the cached
node-visit CSV for a given grid, ``run`` executes an experiment config, and
``report`` merges results files into one comparison table. Exit codes: 0 ok,
2 configuration error, 3 data error.

Each command loads only the code it runs: ``run`` and ``report`` import
``fogrep.experiment`` (the engine, policies, predictors, metrics and PyYAML)
when they start, so ``ingest`` loads just the trace and topology modules.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DataError
from .topology import BEIJING_BBOX, build_grid, dump_topology
from .traces import DEFAULT_GAP_THRESHOLD, load_geolife_dir, write_visits_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def run_experiment(cfg):
    """``fogrep.experiment.run_experiment``, imported only when a run needs
    it; a module global, so that perfbench's traced run can wrap it."""
    from .experiment import run_experiment
    return run_experiment(cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fogrep",
                                     description="Predictive replica placement simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="GeoLife directory -> cached node-visit CSV")
    p_ingest.add_argument("geolife", help="GeoLife root (contains Data/<user>/Trajectory)")
    p_ingest.add_argument("--grid", default="10x10", help="ROWSxCOLS edge grid (default 10x10)")
    p_ingest.add_argument("--bbox", type=float, nargs=4, metavar=("LAT0", "LAT1", "LON0", "LON1"),
                          default=list(BEIJING_BBOX))
    p_ingest.add_argument("--gap-threshold", type=float, default=DEFAULT_GAP_THRESHOLD)
    p_ingest.add_argument("--clients", nargs="*", help="subset of user ids")
    p_ingest.add_argument("--out", required=True, help="output visits CSV path")
    p_ingest.add_argument("--dump-topology", help="also write the topology tables to this file")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="experiment YAML file")
    p_run.add_argument("--out", help="override the output directory")
    p_run.add_argument("--seed", type=int, help="override the experiment seed")
    p_run.add_argument("--jobs", type=int, help="parallel sweep points")

    p_report = sub.add_parser("report", help="merge results.csv files into a comparison table")
    p_report.add_argument("results", nargs="+", help="results.csv files")
    p_report.add_argument("--out", help="write the merged table here (default: stdout)")
    return parser


def _cmd_ingest(args) -> int:
    try:
        rows_s, cols_s = args.grid.lower().split("x")
        rows, cols = int(rows_s), int(cols_s)
    except ValueError:
        raise ConfigError(f"--grid: expected ROWSxCOLS, got {args.grid!r}")
    topo = build_grid(rows, cols, tuple(args.bbox))
    timelines = load_geolife_dir(args.geolife, topo, gap_threshold=args.gap_threshold,
                                 clients=args.clients)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        write_visits_csv(timelines, fh)
    if args.dump_topology:
        Path(args.dump_topology).write_text(dump_topology(topo))
    sessions = sum(len(tl.sessions) for tl in timelines)
    print(f"ingested {len(timelines)} clients, {sessions} sessions -> {out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from .experiment import _positive_integer, load_experiment_config
    cfg = load_experiment_config(args.config)
    if args.out:
        cfg.output = Path(args.out)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.jobs is not None:
        try:
            cfg.jobs = _positive_integer(args.jobs)
        except ValueError as exc:
            raise ConfigError(f"--jobs: {exc}") from None
    rows = run_experiment(cfg)
    for row in rows:
        print(f"{row['policy']:>24} @ {row['topology']:<12} "
              f"availability={float(row['availability']):.4f} "
              f"excess={float(row['excess_ratio']):.4f}")
    print(f"results written to {cfg.output / 'results.csv'}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .experiment import merge_results, write_results_csv
    for p in args.results:
        if not Path(p).exists():
            raise DataError(f"results file not found: {p}")
    rows = merge_results(args.results)
    if args.out:
        write_results_csv(rows, args.out)
        print(f"merged {len(rows)} rows into {args.out}")
    else:
        for row in rows:
            print(",".join(str(row[k]) for k in row))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
