"""Command-line front end.

Subcommands mirror the pipeline stages::

    twosfgl gen    --config c.cfg --out data/        write synthetic CSVs
    twosfgl fuse   --config c.cfg --out fused/       stage 1 only
    twosfgl train  --config c.cfg --out runs/        stage 2 only (raw graphs)
    twosfgl run    --config c.cfg                    both stages, all arms
    twosfgl report --config c.cfg --out runs/        re-summarize history files

``--seed`` replaces the config's seed list with a single seed and ``--arch``
overrides the architecture.  Any failure prints a diagnostic naming the seed,
arm, and stage, and exits nonzero.
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
            ("train", "federated training on the raw graphs (no fusion)"),
            ("run", "full experiment: fusion + training, every arm and seed"),
            ("report", "recompute summary.csv/table.txt from history files")]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed list with one seed")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--arch", choices=("gcn", "sage"), default=None,
                         help="override the model architecture")
    return parser


def _effective_config(args):
    cfg = load_config(args.config)
    updates = {}
    if args.seed is not None:
        updates["seeds"] = (args.seed,)
    if args.arch is not None:
        updates["arch"] = args.arch
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.command == "train":
        updates["arms"] = tuple(a for a in cfg.arms if a != "2sfgl")
        if not updates["arms"]:
            raise ConfigError("train covers only non-fused arms; every "
                              "configured arm is '2sfgl' (use 'run' for the "
                              "full pipeline)")
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
            fusion_outputs(cfg, dataset, seed, dump_dir=dest)
        except Exception as exc:
            raise RuntimeError(f"seed {seed}, stage fusion: {exc}") from exc
        for path in sorted(dest.glob("fused_*.csv")):
            print(path)
    return 0


def _cmd_run(cfg) -> int:
    """``run`` and ``train``; for ``train`` the config has lost the 2sfgl arm."""
    run_experiment(cfg)
    print((Path(cfg.out_dir) / "table.txt").read_text(encoding="utf-8"), end="")
    return 0


def _cmd_report(cfg) -> int:
    report_from_dir(cfg.out_dir, cfg)
    print((Path(cfg.out_dir) / "table.txt").read_text(encoding="utf-8"), end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"gen": _cmd_gen, "fuse": _cmd_fuse, "train": _cmd_run,
                "run": _cmd_run, "report": _cmd_report}
    try:
        cfg = _effective_config(args)
        return handlers[args.command](cfg)
    except Exception as exc:
        print(f"twosfgl {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
