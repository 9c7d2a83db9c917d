"""Command line front end for the experiment pipeline.

Subcommands mirror the pipeline stages plus the sweep runner:

    fedtrace generate  --preset smoke --out runs/smoke
    fedtrace partition --preset smoke --out runs/smoke
    fedtrace train     --preset smoke --out runs/smoke
    fedtrace evaluate  --out runs/smoke
    fedtrace account   --out runs/smoke
    fedtrace sweep non_iid --out sweeps --seeds 0,1,2

Configuration layers, later wins: preset (--preset, else the defaults),
the fields a config file sets (--config, JSON), dotted-path overrides
(--set key.path=value, repeatable), then --seed. The layers merge into
one dict that ExperimentConfig.from_dict reads once, so only the merged
value of a field is checked, and generator.* fields are typed like the
top-level ones (fedtrace.config). evaluate and account work from stored
artifacts alone; the metrics identity comes from the checkpoint's saved
config, so they need no config flags.

Exit codes: 0 success, 2 bad configuration, 3 missing stage artifacts,
1 any other pipeline failure, an I/O error (OSError) included.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import ConfigError, FedTraceError, StageDependencyError
from .experiment import (ExperimentConfig, PRESETS, preset_config, read_config_file,
                         stage_account, stage_evaluate, stage_generate, stage_partition,
                         stage_train)
from .sweeps import DEFAULT_SEEDS, RECIPES, run_sweep

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3


def _merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help="JSON config file; unspecified fields keep the preset's "
                          "value, or the default without --preset")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named base configuration")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="PATH=VALUE",
                     help="dotted-path config override, e.g. generator.n_scripts=5000")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the master seed")


def _add_out_flag(sub: argparse.ArgumentParser, default: str, help_text: str) -> None:
    sub.add_argument("--out", default=default, metavar="DIR", help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedtrace",
        description="Simulate federated, differentially private training of a "
                    "fingerprinting-script detector on a synthetic web corpus.")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, text in (("generate", "write the synthetic corpus artifacts"),
                       ("partition", "draw participant domains and knowledge limits"),
                       ("train", "calibrate noise and run the federated round loop")):
        sub = commands.add_parser(name, help=text)
        _add_config_flags(sub)
        _add_out_flag(sub, "run", "run directory for pipeline artifacts")

    sub = commands.add_parser("evaluate", help="score the stored checkpoint on both splits")
    _add_out_flag(sub, "run", "run directory holding the checkpoint")

    sub = commands.add_parser("account", help="replay the ledger and print the epsilon spent")
    _add_out_flag(sub, "run", "run directory holding ledger.json")

    sub = commands.add_parser("sweep", help="run a named recipe over the experiment grid")
    sub.add_argument("recipe", choices=sorted(RECIPES))
    _add_config_flags(sub)
    _add_out_flag(sub, "sweeps", "directory for the recipe's output tables")
    sub.add_argument("--seeds", default=None, metavar="N,N,...",
                     help=f"comma-separated seeds (default "
                          f"{','.join(str(s) for s in DEFAULT_SEEDS)})")
    return parser


def apply_overrides(data: dict, assignments: Sequence[str]) -> None:
    """Set dotted-path overrides like generator.n_scripts=5000 in a config dict.

    Values parse as JSON literals where possible and fall back to raw
    strings, so feature_set=HighEntropy and epsilon=inf both work.
    """
    for item in assignments:
        path, sep, raw = item.partition("=")
        path = path.strip()
        if not sep or not path:
            raise ConfigError(item, "override must look like field.path=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = data
        for key in keys[:-1]:
            node = node.get(key)
            if not isinstance(node, dict):
                raise ConfigError(path, f"{key!r} is not a config section")
        node[keys[-1]] = value


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge every layer into one dict and read it once.

    The layers: the preset's fields (the defaults without --preset), the
    fields the config file sets, each --set, then --seed.
    """
    data = (preset_config(args.preset) if args.preset else ExperimentConfig()).to_dict()
    if args.config:
        _merge(data, read_config_file(args.config))
    apply_overrides(data, args.overrides)
    if args.seed is not None:
        data["seed"] = args.seed
    return ExperimentConfig.from_dict(data)


def _parse_seeds(text: str | None) -> tuple[int, ...]:
    if text is None:
        return DEFAULT_SEEDS
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError("seeds", f"not a comma-separated integer list: {text!r}") from None
    if not seeds:
        raise ConfigError("seeds", "need at least one seed")
    return seeds


def _eps_text(value) -> str:
    return value if isinstance(value, str) else f"{value:.6f}"


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        manifest = stage_generate(resolve_config(args), args.out)
        print(f"wrote {manifest['n_scripts']} scripts over {manifest['n_domains']} domains "
              f"({manifest['n_fingerprinting']} fingerprinting, "
              f"{manifest['n_train_domains']}/{manifest['n_test_domains']} "
              f"train/test) to {args.out}")
    elif args.command == "partition":
        manifest = stage_partition(resolve_config(args), args.out)
        sizes = [entry["n_scripts"] for entry in manifest["participants"]]
        print(f"partitioned {args.out} across {manifest['n_participants']} participants "
              f"({min(sizes)}-{max(sizes)} scripts each, "
              f"{len(manifest['limited_knowledge']['assignments'])} knowledge-limited)")
    elif args.command == "train":
        outcome = stage_train(resolve_config(args), args.out)
        last = outcome.records[-1]
        print(f"trained {len(outcome.records)} rounds "
              f"(z_norm={outcome.budget.z_norm:.4g}, z_train={outcome.budget.z_train:.4g}); "
              f"final update norm {last.update_norm:.4g}, model norm {last.theta_norm:.4g}")
    elif args.command == "evaluate":
        for row in stage_evaluate(args.out):
            print(f"{row['split']}: auprc={row['auprc']:.6f} "
                  f"({row['n_positive']}/{row['n_scripts']} positive)")
    elif args.command == "account":
        report = stage_account(args.out)
        for phase in report["phases"]:
            print(f"phase {phase['mechanism']}: {phase['n_queries']} queries at "
                  f"q={phase['q']:.6g}, z={phase['z']:.6g} -> "
                  f"epsilon {_eps_text(phase['epsilon_alone'])} alone")
        order = report["best_order"]
        tail = f" (order {order:g})" if order is not None else ""
        print(f"epsilon = {_eps_text(report['epsilon'])} at delta = {report['delta']:g}{tail}")
    elif args.command == "sweep":
        result = run_sweep(args.recipe, args.out, base=resolve_config(args),
                           seeds=_parse_seeds(args.seeds))
        for row in result.summary:
            print(f"{row['feature_set']:>22s} W={row['participants']:<6d} "
                  f"eps={_eps_text_from_float(row['epsilon']):<10s} "
                  f"auprc {row['auprc_mean']:.4f} +/- {row['auprc_std']:.4f} "
                  f"({row['seeds']} seeds)")
        print(f"wrote {', '.join(str(p) for p in result.files.values())}")
    return EXIT_OK


def _eps_text_from_float(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:g}"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageDependencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (FedTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
