"""Named sweep recipes over the experiment grid, with artifact reuse.

A recipe is a list of config variants sharing one generator setting, so
every seed's corpus is built once and reused across the grid, as are
partitions and the per-participant column moments (which depend on the
partition and feature set but not on the noise level). One memo over a
plain dict holds all three: a corpus under its resolved generator
config, a partition under the config fields that decide it
(experiment.PARTITION_FIELDS), and moments under those plus the feature
set. ext_high_entropy stores each seed's corpus again under the same
key, with a catalog that registers the rebuilt set, so only that seed's
later runs read it. Each recipe run writes three files into the output
directory:

    <recipe>_runs.csv     one row per (variant, seed) with the test AUPRC
    <recipe>_summary.csv  mean/std per (feature set, participants, epsilon)
    <recipe>_series.csv   plot-ready (x, y, series) rows, one per variant

All three carry the base config snapshot in a leading comment line.

Recipes:

    participants       AUPRC vs cohort size W in {1, 10, 100, 1000}, no noise
    epsilon            AUPRC vs epsilon in {1, 5, 10, inf} for W in {1000, 10000}
    feature_sets       AUPRC for every named feature set, no noise
    ext_high_entropy   rebuild the extended high-entropy set from a full-width
                       probe model's weight ranking and compare it against the
                       base and shipped sets
    feat_norm_ablation private normalization on vs off across epsilon
    non_iid            AUPRC and non-IIDness vs limited-knowledge fraction,
                       with the ratio to the IID baseline per seed
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .experiment import (PARTITION_FIELDS, ExperimentConfig, PreparedData,
                         build_participants, config_snapshot_line, prepare_data,
                         resolve_mask, score_splits, smoke_preset, train_in_memory,
                         write_csv)
from .features import build_ext_high_entropy, feature_importance
from .fednorm import participant_moments
from .metrics import group_stats, summarize_runs
from .partition import non_iidness_score
from .seeding import SCORE_SAMPLING, derive_rng

DEFAULT_SEEDS = (0, 1, 2, 3, 4)
EXT_REBUILD_K = 40  # extra slots grafted onto HighEntropy by the rebuild recipe

RUNS_HEADER = ("series", "x", "feature_set", "participants", "epsilon", "seed",
               "train_auprc", "auprc")
SUMMARY_HEADER = ("feature_set", "participants", "epsilon", "seeds",
                  "auprc_mean", "auprc_std")
SERIES_HEADER = ("x", "y", "series", "y_std", "seeds")


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One grid point: config overrides plus its plot coordinates."""

    overrides: tuple[tuple[str, object], ...]
    series: str
    x: object


@dataclass(eq=False)
class SweepRun:
    config: ExperimentConfig
    series: str
    x: object
    train_auprc: float
    auprc: float
    extra: dict


@dataclass(eq=False)
class SweepResult:
    recipe: str
    base: ExperimentConfig
    runs: list[SweepRun]
    summary: list[dict]
    files: dict[str, Path]


def _partition_key(config: ExperimentConfig) -> tuple:
    return tuple(getattr(config, name) for name in PARTITION_FIELDS)


def _memo(cache: dict, key, build: Callable):
    """cache[key], built by build() the first time the key is asked for."""
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _run_config(base: ExperimentConfig, spec: RunSpec, seed: int) -> ExperimentConfig:
    return dataclasses.replace(base, seed=seed, **dict(spec.overrides))


def _corpus(cache: dict, config: ExperimentConfig) -> PreparedData:
    return _memo(cache, config.resolved_generator, lambda: prepare_data(config))


def _run_one(base: ExperimentConfig, spec: RunSpec, seed: int, cache: dict,
             extra_fn: Callable | None = None) -> SweepRun:
    config = _run_config(base, spec, seed)
    prepared = _corpus(cache, config)
    key = _partition_key(config)
    participants = _memo(cache, key, lambda: build_participants(prepared, config))
    moments = None
    if config.normalize:
        moments = _memo(cache, (*key, config.feature_set), lambda: participant_moments(
            participants, resolve_mask(prepared.corpus.catalog, config.feature_set)))
    outcome = train_in_memory(prepared, participants, config, moments=moments)
    metrics = {row["split"]: row
               for row in score_splits(prepared, config, outcome.model, outcome.norm_stats)}
    extra = extra_fn(config, prepared, participants, outcome) if extra_fn else {}
    return SweepRun(config, spec.series, spec.x,
                    metrics["train"]["auprc"], metrics["test"]["auprc"], extra)


def _execute(base: ExperimentConfig, specs: Sequence[RunSpec], seeds: Sequence[int],
             extra_fn: Callable | None = None) -> list[SweepRun]:
    cache = {}
    return [_run_one(base, spec, seed, cache, extra_fn)
            for spec in specs for seed in seeds]


# -------------------------------------------------------------- recipes

def _recipe_participants(base, seeds):
    # q=None reverts to the ~100-sampled-per-round default at every W
    specs = [RunSpec((("n_participants", w), ("epsilon", math.inf), ("q", None)),
                     series=base.feature_set, x=w)
             for w in (1, 10, 100, 1000)]
    return _execute(base, specs, seeds)


def _recipe_epsilon(base, seeds):
    specs = [RunSpec((("n_participants", w), ("epsilon", eps), ("q", None)),
                     series=f"W={w}", x=eps)
             for w in (1000, 10_000)
             for eps in (1.0, 5.0, 10.0, math.inf)]
    return _execute(base, specs, seeds)


def _recipe_feature_sets(base, seeds):
    names = ("All", "FPInspector", "JShelter", "HighEntropy", "ExtHighEntropy")
    specs = [RunSpec((("feature_set", name), ("epsilon", math.inf)),
                     series="feature_set", x=name)
             for name in names]
    return _execute(base, specs, seeds)


def _recipe_feat_norm_ablation(base, seeds):
    specs = [RunSpec((("normalize", flag), ("epsilon", eps)),
                     series="norm-on" if flag else "norm-off", x=eps)
             for flag in (True, False)
             for eps in (1.0, 5.0, math.inf)]
    return _execute(base, specs, seeds)


def _recipe_non_iid(base, seeds):
    def extra_fn(config, prepared, participants, outcome):
        rng = derive_rng(config.seed, SCORE_SAMPLING)
        return {"non_iidness": non_iidness_score(participants, rng=rng)}

    specs = [RunSpec((("limited_knowledge_fraction", f), ("epsilon", math.inf)),
                     series="limited-knowledge", x=f)
             for f in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    runs = _execute(base, specs, seeds, extra_fn=extra_fn)
    baseline = {r.config.seed: r.auprc for r in runs
                if r.config.limited_knowledge_fraction == 0.0}
    for r in runs:
        r.extra["iid_ratio"] = r.auprc / baseline[r.config.seed]
    return runs


def _recipe_ext_high_entropy(base, seeds):
    """Probe with every slot, rank by |weight|, rebuild, compare."""

    def keep_weights(config, prepared, participants, outcome):
        return {"_weights": outcome.model.weights}

    runs = []
    cache = {}
    probe_spec = RunSpec((("feature_set", "All"), ("epsilon", math.inf)),
                         series="feature_set", x="All")
    for seed in seeds:
        probe = _run_one(base, probe_spec, seed, cache, extra_fn=keep_weights)
        weights = probe.extra.pop("_weights")
        runs.append(probe)
        prepared = _corpus(cache, probe.config)
        catalog = prepared.corpus.catalog
        ranking = feature_importance(weights)
        outside = ranking[~np.isin(ranking, catalog.mask("HighEntropy"))]
        rebuilt = build_ext_high_entropy(catalog, outside, EXT_REBUILD_K)
        catalog2 = dataclasses.replace(
            catalog, named_sets={**catalog.named_sets,
                                 "ExtHighEntropyRebuilt": tuple(int(s) for s in rebuilt)})
        # this seed's later runs read the corpus with the rebuilt set registered
        cache[probe.config.resolved_generator] = PreparedData(
            dataclasses.replace(prepared.corpus, catalog=catalog2),
            prepared.ranking, prepared.split, prepared.manifest)
        for name in ("HighEntropy", "ExtHighEntropyRebuilt", "ExtHighEntropy"):
            spec = RunSpec((("feature_set", name),), series="feature_set", x=name)
            runs.append(_run_one(base, spec, seed, cache))
    return runs


RECIPES: dict[str, Callable] = {
    "participants": _recipe_participants,
    "epsilon": _recipe_epsilon,
    "feature_sets": _recipe_feature_sets,
    "ext_high_entropy": _recipe_ext_high_entropy,
    "feat_norm_ablation": _recipe_feat_norm_ablation,
    "non_iid": _recipe_non_iid,
}


# -------------------------------------------------------------- outputs

def _x_sort_key(x) -> tuple:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return (1, str(x))
    return (0, float(x))


def _series_rows(runs: Sequence[SweepRun]) -> list[tuple]:
    groups: dict[tuple, list[float]] = {}
    for r in runs:
        groups.setdefault((r.series, r.x), []).append(r.auprc)
    rows = []
    for (series, x), values in sorted(groups.items(),
                                      key=lambda kv: (kv[0][0], _x_sort_key(kv[0][1]))):
        mean, std, count = group_stats(values)
        rows.append((x, mean, series, std, count))
    return rows


def write_sweep_outputs(recipe: str, base: ExperimentConfig, runs: Sequence[SweepRun],
                        out_dir) -> tuple[list[dict], dict[str, Path]]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = config_snapshot_line(base)
    extras = sorted({key for r in runs for key in r.extra})
    runs_path = out_dir / f"{recipe}_runs.csv"
    write_csv(runs_path, RUNS_HEADER + tuple(extras),
              [(r.series, r.x, r.config.feature_set, r.config.n_participants,
                r.config.epsilon, r.config.seed, r.train_auprc, r.auprc,
                *(r.extra.get(key) for key in extras))
               for r in runs],
              snapshot=snapshot)
    summary = summarize_runs([
        {"feature_set": r.config.feature_set, "participants": r.config.n_participants,
         "epsilon": r.config.epsilon, "seed": r.config.seed, "auprc": r.auprc}
        for r in runs])
    summary_path = out_dir / f"{recipe}_summary.csv"
    write_csv(summary_path, SUMMARY_HEADER,
              [tuple(row[k] for k in SUMMARY_HEADER) for row in summary],
              snapshot=snapshot)
    series_path = out_dir / f"{recipe}_series.csv"
    write_csv(series_path, SERIES_HEADER, _series_rows(runs), snapshot=snapshot)
    return summary, {"runs": runs_path, "summary": summary_path, "series": series_path}


def run_sweep(recipe: str, out_dir, base: ExperimentConfig | None = None,
              seeds: Sequence[int] = DEFAULT_SEEDS) -> SweepResult:
    """Run one named recipe and write its three output files."""
    try:
        runner = RECIPES[recipe]
    except KeyError:
        raise ConfigError("recipe",
                          f"unknown recipe {recipe!r}; choose from {sorted(RECIPES)}") from None
    if not seeds:
        raise ConfigError("seeds", "need at least one seed")
    if base is None:
        base = smoke_preset()
    runs = runner(base, tuple(dict.fromkeys(int(s) for s in seeds)))
    summary, files = write_sweep_outputs(recipe, base, runs, out_dir)
    return SweepResult(recipe, base, runs, summary, files)
