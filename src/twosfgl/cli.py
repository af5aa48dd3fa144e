"""Command-line front end.

Subcommands mirror the pipeline stages::

    twosfgl gen    --config c.cfg --out data/        write synthetic CSVs
    twosfgl fuse   --config c.cfg --out fused/       stage 1 only
    twosfgl run    --config c.cfg                    every configured arm
    twosfgl report --config c.cfg --out runs/        re-summarize a run

The config describes the run: ``run`` trains each (seed, arm) cell of it and
``report`` reads exactly those cells' history files back.  Stage 2 alone is
``run`` with arms that leave out ``2sfgl``.  ``--seed`` replaces the config's
seed list with a single seed and ``--out`` its output directory.  Any failure
prints a diagnostic naming the seed, arm, and stage, and exits nonzero.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .harness import (fusion_outputs, prepare_data, report_from_dir,
                      run_experiment)
from .synth import generate_synthetic

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twosfgl",
                                     description="two-stage federated graph "
                                                 "learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("gen", "generate synthetic dataset CSVs"),
            ("fuse", "run privacy-preserving graph fusion and dump the result"),
            ("run", "full experiment: fusion + training, every arm and seed"),
            ("report", "recompute summary.csv/table.txt from the run's histories")]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed list with one seed")
        cmd.add_argument("--out", default=None, help="output directory")
    return parser


def _effective_config(args):
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seeds"] = (args.seed,)
    if args.out is not None:
        updates["out_dir"] = args.out
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_gen(cfg) -> int:
    if cfg.synth is None:
        raise ConfigError("gen needs synth.* keys in the config")
    out = Path(cfg.out_dir)
    for seed in cfg.seeds:
        dest = out if len(cfg.seeds) == 1 else out / f"seed{seed}"
        node_path, relation_paths = generate_synthetic(cfg.synth, seed, dest)
        for path in [node_path, *relation_paths.values()]:
            print(path)
    return 0


def _cmd_fuse(cfg) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        dest = out if len(cfg.seeds) == 1 else out / f"seed{seed}"
        try:
            dataset = prepare_data(cfg, seed, dest)
        except Exception as exc:
            raise RuntimeError(f"seed {seed}, stage data: {exc}") from exc
        try:
            fused = fusion_outputs(cfg, dataset, seed, dump_dir=dest)
        except Exception as exc:
            raise RuntimeError(f"seed {seed}, stage fusion: {exc}") from exc
        for path in sorted(dest / f"fused_{graph.relation_name}.csv" for graph in fused):
            print(path)
    return 0


def _cmd_table(cfg, write) -> int:
    """``run`` and ``report``: ``write`` leaves summary.csv and table.txt in
    the output directory, and the table is printed."""
    write(cfg=cfg, out_dir=cfg.out_dir)
    print((Path(cfg.out_dir) / "table.txt").read_text(encoding="utf-8"), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "fuse": _cmd_fuse,
                "run": lambda cfg: _cmd_table(cfg, run_experiment),
                "report": lambda cfg: _cmd_table(cfg, report_from_dir)}
    try:
        cfg = _effective_config(args)
        return handlers[args.command](cfg)
    except Exception as exc:
        print(f"twosfgl {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
