"""Experiment pipeline: generate -> partition -> train -> evaluate -> account.

Each stage is a pure function of (config, run directory): it reads the
artifacts earlier stages wrote, writes its own, and re-running it with the
same config produces byte-identical files. Missing upstream artifacts raise
StageDependencyError, bad configuration ConfigError naming the field path,
and a JSON artifact that fedtrace.config's typed reader refuses FieldError
or ParseError naming the file and the field path; no value is cast.

One shared privacy ledger covers both private phases of a run. With
normalization enabled and a finite epsilon target, a configurable
fraction of the target (default 10%) is reserved for the 2F
normalization statistic queries: their noise multiplier is calibrated
first against that slice alone, and the training multiplier is then
calibrated against the full target with the normalization phase
composed at its fixed multiplier. epsilon = inf is the no-noise
sentinel; both multipliers are zero and the accountant reports inf.

Artifacts, all inside one run directory:

    traces.jsonl            one JSON object per script trace (audit only:
                            no later stage reads it)
    features.npz            the feature matrix's nonzeros (CSR), labels,
                            fingerprinting-type bitmasks and row order
    catalog.json            feature catalog used throughout the run
    placements.json         domain -> script ids in load order
    ranking.txt             rank<TAB>domain popularity ranking
    split.json              train/test domain lists
    generate_manifest.json  corpus counts, the config snapshot, the
                            catalog's hash and the sha256 of features.npz,
                            placements.json, ranking.txt and split.json
    partition.json          per-participant domain draws, each with its
                            script count before the knowledge limit, and
                            the knowledge limits
    normstats.json          private normalization statistics (if enabled)
    checkpoint.json         final model weights plus provenance hashes,
                            including the sha256 of partition.json,
                            normstats.json and ledger.json
    round_records.csv       per-round sampled / update norm / theta norm
    ledger.json             every (mechanism, q, z, count) charged
    metrics.csv             train/test AUPRC rows, config in the header
    privacy_report.json     per-phase RDP and the final epsilon at delta

The identity columns that evaluate writes come from the checkpoint's
stored config, so metrics always describe the model they score.

partition, train and evaluate each start from load_corpus, the one reader
of the generate stage's artifacts, and partition.json's script counts are
the sizes of the build_partition views that train builds.

Every artifact is replaced atomically (artifacts.atomic_write). Each input
file a stage takes is read once, by _artifact, which refuses a missing file
and, where a sha256 is recorded, other bytes (StageDependencyError): the
_RECORDED table's four corpus files against generate_manifest.json, and
partition.json, normstats.json and ledger.json against checkpoint.json.
catalog.json is checked against the manifest's catalog_hash once parsed.
Every parser works on the bytes that were read, so a file swapped after its
check is never used; features.npz's arrays are read straight from them
(artifacts.read_npz), with no second CRC pass. Every JSON artifact,
generate_manifest.json and partition.json included, goes through the typed reader.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .artifacts import atomic_write, file_sha256, read_npz, write_npz
from .config import ALLOW_INF, JsonConfig, check_keys, read_value
from .errors import (CalibrationError, ConfigError, FieldError, InvalidMask, ParseError,
                     StageDependencyError)
from .features import catalog_hash, default_catalog, parse_catalog, save_catalog
from .fedavg import TrainingRunConfig, RoundRecord, train
from .fednorm import (DEFAULT_CLIP_MU, DEFAULT_CLIP_VAR, NORMALIZE_MODES, VARIANCE_FLOOR,
                      ColumnMoments, NormStats, dp_fed_norm, fold_model,
                      normalize_matrix, participant_moments, save_norm_stats)
from .heuristics import label
from .metrics import average_precision
from .model import LogisticModel, OptimizerConfig
from .partition import (DEFAULT_URLS_PER_PARTICIPANT, DEFAULT_ZIPF_EXPONENT, DomainRanking,
                        LimitedKnowledgeSpec, ParticipantDataset, ScriptCorpus,
                        build_partition, draw_domains, make_limited_knowledge,
                        parse_ranking, save_ranking)
from .privacy import PlannedQuery, PrivacyLedger, calibrate_noise, epsilon_and_order
from .seeding import NORM_QUERY, derive_rng
from .synth import GeneratorConfig, SplitSpec, generate_corpus, generate_stream
from .traces import LabeledScript, parse_trace_file, trace_to_json_line

TARGET_SAMPLED_PER_ROUND = 100
DEFAULT_DELTA = 1e-5
DEFAULT_NORM_FRACTION = 0.1

TRACES_FILE = "traces.jsonl"
FEATURES_FILE = "features.npz"
CATALOG_FILE = "catalog.json"
PLACEMENTS_FILE = "placements.json"
RANKING_FILE = "ranking.txt"
SPLIT_FILE = "split.json"
GENERATE_MANIFEST_FILE = "generate_manifest.json"
PARTITION_FILE = "partition.json"
NORM_STATS_FILE = "normstats.json"
CHECKPOINT_FILE = "checkpoint.json"
ROUND_RECORDS_FILE = "round_records.csv"
LEDGER_FILE = "ledger.json"
METRICS_FILE = "metrics.csv"
PRIVACY_REPORT_FILE = "privacy_report.json"
# the corpus files generate_manifest.json guards, each with the key of its sha256
_RECORDED = {FEATURES_FILE: "features_sha256", PLACEMENTS_FILE: "placements_sha256",
             RANKING_FILE: "ranking_sha256", SPLIT_FILE: "split_sha256"}
_PLACEMENTS = functools.partial(read_value, dict[str, tuple[str, ...]])  # placements.json
# what a stage reads in generate_manifest.json: a hash the manifest lacks
# or records as null is refused by the check against it, and a config
# snapshot it lacks by the config check
_GENERATE_MANIFEST = {"catalog_hash": str | None, "experiment_config": dict,
                      **dict.fromkeys(_RECORDED.values(), str | None)}
# every key partition.json holds
_PARTITION_KEYS = ("config", "limited_knowledge", "master_seed", "n_participants",
                   "participants", "urls_per_participant", "zipf_exponent")

METRICS_HEADER = ("feature_set", "participants", "epsilon", "seed", "split",
                  "n_scripts", "n_positive", "auprc")
ROUND_RECORDS_HEADER = ("round", "sampled", "update_norm", "theta_norm", "auprc")
CONFIG_COMMENT_PREFIX = "# config="


def _encode_epsilon(value: float):
    return "inf" if math.isinf(value) else float(value)


# --------------------------------------------------------------- config

# The config fields that decide the corpus, and those that decide the
# partition drawn from it; a stage refuses artifacts built under others.
CORPUS_FIELDS = ("generator", "seed")
PARTITION_FIELDS = CORPUS_FIELDS + ("n_participants", "urls_per_participant",
                                    "zipf_exponent", "limited_knowledge_fraction")


@dataclass(frozen=True, slots=True)
class ExperimentConfig(JsonConfig):
    """Everything one run depends on; `seed` moves every random stream.

    The embedded generator config's own seed is overridden by the
    top-level seed at resolution time, so corpus, partition and training
    randomness all follow the one knob. q and norm_q default to the rate
    that samples about 100 participants per round.
    """

    _error = ConfigError
    generator: GeneratorConfig = field(
        default_factory=lambda: GeneratorConfig(n_scripts=20_000))
    n_participants: int = 100
    urls_per_participant: int = DEFAULT_URLS_PER_PARTICIPANT
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    limited_knowledge_fraction: float = 0.0
    feature_set: str = "ExtHighEntropy"
    epsilon: float = field(default=math.inf, metadata={ALLOW_INF: True})
    delta: float = DEFAULT_DELTA
    norm_fraction: float = DEFAULT_NORM_FRACTION
    normalize: bool = True
    norm_mode: str = "std"
    norm_q: float | None = None
    clip_mu: float = DEFAULT_CLIP_MU
    clip_var: float = DEFAULT_CLIP_VAR
    variance_floor: float = VARIANCE_FLOOR
    rounds: int = 30
    q: float | None = None
    clip_norm: float = 1.0
    local_epochs: int = 1
    local_iterations: int = 25
    eval_every: int = 0
    seed: int = 0

    def _check(self):
        for name, low in (("n_participants", 1), ("urls_per_participant", 1), ("rounds", 1),
                          ("local_epochs", 1), ("local_iterations", 1), ("eval_every", 0),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(name, f"must be >= {low}: {getattr(self, name)}")
        for name in ("zipf_exponent", "epsilon", "clip_mu", "clip_var", "variance_floor",
                     "clip_norm"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, f"must be positive: {getattr(self, name)}")
        if not 0.0 <= self.limited_knowledge_fraction <= 1.0:
            raise ConfigError("limited_knowledge_fraction",
                              f"must be in [0, 1]: {self.limited_knowledge_fraction}")
        if not self.feature_set:
            raise ConfigError("feature_set", "must be non-empty")
        for name, value in (("delta", self.delta), ("norm_fraction", self.norm_fraction)):
            if not 0.0 < value < 1.0:
                raise ConfigError(name, f"must be in (0, 1): {value}")
        if self.norm_mode not in NORMALIZE_MODES:
            raise ConfigError("norm_mode",
                              f"must be one of {NORMALIZE_MODES}: {self.norm_mode!r}")
        for name, value in (("q", self.q), ("norm_q", self.norm_q)):
            if value is not None and not 0.0 < value <= 1.0:
                raise ConfigError(name, f"must be in (0, 1]: {value}")

    @property
    def resolved_q(self) -> float:
        if self.q is not None:
            return self.q
        return min(1.0, TARGET_SAMPLED_PER_ROUND / self.n_participants)

    @property
    def resolved_norm_q(self) -> float:
        return self.norm_q if self.norm_q is not None else self.resolved_q

    @property
    def resolved_generator(self) -> GeneratorConfig:
        return dataclasses.replace(self.generator, seed=self.seed)

    @property
    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(max_iterations=self.local_iterations)


def read_config_file(path) -> dict:
    """A JSON config file's object as written; ExperimentConfig.from_dict fills defaults."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(str(path), "config file not found") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(str(path), f"cannot read the config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(str(path), "config root must be a JSON object")
    return obj


def smoke_preset() -> ExperimentConfig:
    """Small corpus, full participation, minutes on a laptop."""
    return ExperimentConfig(
        generator=GeneratorConfig(n_scripts=20_000),
        n_participants=100,
        rounds=10,
        q=1.0,
        epsilon=5.0,
        feature_set="ExtHighEntropy",
        local_iterations=10,
    )


def paper_trend_preset() -> ExperimentConfig:
    """Reference trend operating point: large corpus, subsampled rounds."""
    return ExperimentConfig(
        generator=GeneratorConfig(n_scripts=100_000),
        n_participants=1000,
        rounds=30,
        q=0.1,
        epsilon=5.0,
        feature_set="ExtHighEntropy",
        local_iterations=25,
    )


PRESETS = {"smoke": smoke_preset, "paper-trend": paper_trend_preset}


def preset_config(name: str) -> ExperimentConfig:
    try:
        build = PRESETS[name]
    except KeyError:
        raise ConfigError("preset",
                          f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return build()


# ------------------------------------------------------------ artifacts

@dataclass(frozen=True, slots=True)
class LedgerRecord(JsonConfig):
    """ledger.json: the run's delta and every (mechanism, q, z, count) it charged."""

    delta: float
    entries: tuple[tuple[str, float, float, int], ...] = ()

    def _check(self):
        if not 0.0 < self.delta < 1.0:
            raise FieldError("delta", f"must be in (0, 1): {self.delta}")
        for i, (_, q, z, count) in enumerate(self.entries):
            if not 0.0 < q <= 1.0:
                raise FieldError(f"entries[{i}][1]", f"must be in (0, 1]: {q}")
            if z < 0.0:
                raise FieldError(f"entries[{i}][2]", f"must be >= 0: {z}")
            if count < 1:
                raise FieldError(f"entries[{i}][3]", f"must be >= 1: {count}")


@dataclass(frozen=True, slots=True)
class Checkpoint(JsonConfig):
    """checkpoint.json: the trained model, its config and what it was trained on."""

    weights: tuple[float, ...]
    bias: float
    feature_set: str
    catalog_hash: str
    normalize: bool
    norm_mode: str
    z_norm: float
    z_train: float
    normstats_sha256: str | None
    partition_sha256: str
    ledger_sha256: str
    config: ExperimentConfig


def _write_json(obj, path) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


_UNGUARDED = object()  # no recorded hash guards the file where a stage reads it


def _artifact(run_dir: Path, name: str, recorded=_UNGUARDED, rerun: str | None = None) -> bytes:
    """The bytes of an input artifact: every file a stage takes is read here, once.

    A missing file is a StageDependencyError, and so are bytes whose sha256
    differs from the recorded one (None too, a hash the record lacks);
    rerun names the stage that writes what was recorded.
    """
    try:
        data = (run_dir / name).read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise StageDependencyError(
            f"{name} is missing from {run_dir}; run the earlier stages first") from None
    if recorded is not _UNGUARDED and hashlib.sha256(data).hexdigest() != recorded:
        raise StageDependencyError(
            f"{name} in {run_dir} is not the one this run recorded; re-run the {rerun} stage")
    return data


def _read_record(run_dir: Path, name: str, read, data: bytes):
    """read applied to the JSON of an artifact's bytes; errors name the file."""
    path = run_dir / name
    try:
        return read(json.loads(data))
    except FieldError as exc:  # keeps its class, and so the CLI's exit code
        raise type(exc)(f"{path}: {exc.field}" if exc.field else str(path), exc.message) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not a JSON document: {exc}", path=str(path)) from None


def _read_generate_manifest(obj) -> dict:
    """generate_manifest.json's object, once every value a stage reads in it is read."""
    read_value(dict, obj)
    for key, tp in _GENERATE_MANIFEST.items():
        if key in obj:
            read_value(tp, obj[key], key)
    return obj


def config_snapshot_line(config: ExperimentConfig) -> str:
    return CONFIG_COMMENT_PREFIX + json.dumps(
        config.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence],
               snapshot: str | None = None) -> None:
    with atomic_write(path) as fh:
        if snapshot is not None:
            fh.write(snapshot + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


# ----------------------------------------------------- in-memory pieces

def training_ranking(ranking: DomainRanking, split: SplitSpec) -> DomainRanking:
    """Popularity ranking restricted to training domains, order kept."""
    train = set(split.train_domains)
    return DomainRanking(tuple(d for d in ranking if d in train))


def _rows_for(corpus: ScriptCorpus, domains: Sequence[str]) -> np.ndarray:
    """The corpus rows the domains load, each once, in ascending order."""
    loaded = np.zeros(corpus.n_scripts, dtype=bool)
    if domains:
        loaded[np.concatenate([corpus.rows_for_domain(d) for d in domains])] = True
    return np.flatnonzero(loaded)


@dataclass(eq=False)
class PreparedData:
    """Corpus plus the split bookkeeping every later stage leans on."""

    corpus: ScriptCorpus
    ranking: DomainRanking
    split: SplitSpec
    manifest: dict

    @cached_property
    def train_ranking(self) -> DomainRanking:
        return training_ranking(self.ranking, self.split)

    @cached_property
    def train_rows(self) -> np.ndarray:
        return _rows_for(self.corpus, self.split.train_domains)

    @cached_property
    def test_rows(self) -> np.ndarray:
        return _rows_for(self.corpus, self.split.test_domains)


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """Generate the corpus straight into the feature matrix."""
    corpus, ranking, split, manifest = generate_corpus(config.resolved_generator,
                                                       default_catalog())
    return PreparedData(corpus, ranking, split, manifest)


def _partition_plan(train_ranking: DomainRanking, config: ExperimentConfig
                    ) -> tuple[list[list[str]], LimitedKnowledgeSpec]:
    """The run's domain draws and knowledge limits.

    ConfigError unless urls_per_participant fits the training domains.
    """
    if config.urls_per_participant > len(train_ranking):
        raise ConfigError("urls_per_participant",
                          f"only {len(train_ranking)} training domains available")
    spec = make_limited_knowledge(range(config.n_participants),
                                  config.limited_knowledge_fraction, config.seed)
    draws = draw_domains(train_ranking, config.n_participants, config.urls_per_participant,
                         config.zipf_exponent, config.seed)
    return draws, spec


def build_participants(prepared: PreparedData,
                       config: ExperimentConfig) -> list[ParticipantDataset]:
    """Partition the training domains under the knowledge limits."""
    return build_partition(prepared.corpus, *_partition_plan(prepared.train_ranking, config))


def resolve_mask(catalog, name: str) -> np.ndarray:
    try:
        return catalog.mask(name)
    except InvalidMask as exc:
        raise ConfigError("feature_set", str(exc)) from exc


@dataclass(frozen=True, slots=True)
class NoiseBudget:
    z_norm: float
    z_train: float


def calibrate_budget(config: ExperimentConfig, n_features: int) -> NoiseBudget:
    """Split the epsilon target between normalization and training.

    Normalization is calibrated first against norm_fraction of the
    target using its 2F queries alone; training is then calibrated
    against the full target with the normalization phase fixed. With
    normalization off the whole budget goes to training. epsilon = inf
    means no noise anywhere.
    """
    if math.isinf(config.epsilon):
        return NoiseBudget(0.0, 0.0)
    rounds_query = PlannedQuery(config.resolved_q, config.rounds)
    if not config.normalize:
        z_train = calibrate_noise(config.epsilon, config.delta, [rounds_query])
        return NoiseBudget(0.0, z_train)
    norm_query_count = 2 * n_features
    try:
        z_norm = calibrate_noise(config.norm_fraction * config.epsilon, config.delta,
                                 [PlannedQuery(config.resolved_norm_q, norm_query_count)])
    except CalibrationError as exc:
        raise CalibrationError(f"{exc}; the normalization target is norm_fraction*epsilon "
                               f"= {config.norm_fraction}*{config.epsilon}") from exc
    z_train = calibrate_noise(config.epsilon, config.delta,
                              [PlannedQuery(config.resolved_norm_q, norm_query_count,
                                            z=z_norm),
                               rounds_query])
    return NoiseBudget(z_norm, z_train)


@dataclass(eq=False)
class TrainOutcome:
    """Model, per-round records and the privacy state of one training run."""

    model: LogisticModel
    records: list[RoundRecord]
    ledger: PrivacyLedger
    budget: NoiseBudget
    norm_stats: NormStats | None
    mask: np.ndarray
    # the masked features of every corpus row as the model was trained on
    # them: normalized when the run normalizes (normalize_matrix's bytes
    # over corpus.columns(mask)), raw otherwise
    matrix: np.ndarray


def train_in_memory(prepared: PreparedData, participants: Sequence[ParticipantDataset],
                    config: ExperimentConfig, *,
                    moments: ColumnMoments | None = None) -> TrainOutcome:
    """Calibrate, normalize and run the round loop on prepared data.

    moments may carry precomputed per-participant column moments (they
    depend only on the partition and the feature set, not on the noise
    level), which sweeps reuse across epsilon settings.

    The run holds one dense block, corpus.columns(mask): once the moments
    and the statistic queries have read it, it is normalized in place.
    The round evaluator scores the sparse test rows with each round's
    model folded over the statistics (fold_model).
    """
    corpus = prepared.corpus
    mask = resolve_mask(corpus.catalog, config.feature_set)
    budget = calibrate_budget(config, len(mask))
    ledger = PrivacyLedger()
    x_masked = corpus.columns(mask)
    # views over the one block: raw until it is normalized in place below
    parts = [p.over(x_masked) for p in participants]
    norm_stats = None
    if config.normalize:
        if moments is None:
            moments = participant_moments(parts)
        norm_stats = dp_fed_norm(parts, config.resolved_norm_q, budget.z_norm,
                                 config.clip_mu, config.clip_var,
                                 rng=derive_rng(config.seed, NORM_QUERY),
                                 ledger=ledger, moments=moments,
                                 variance_floor=config.variance_floor)
        normalize_matrix(x_masked, norm_stats, config.norm_mode,
                         variance_floor=config.variance_floor, out=x_masked)
    run_cfg = TrainingRunConfig(rounds=config.rounds, n_participants=config.n_participants,
                                q=config.resolved_q, z=budget.z_train,
                                clip_norm=config.clip_norm, local_epochs=config.local_epochs,
                                optimizer=config.optimizer, seed=config.seed,
                                eval_every=config.eval_every)
    evaluator = None
    if config.eval_every:
        x_test = corpus.X.take_rows(prepared.test_rows).take_columns(mask)
        y_test = corpus.labels[prepared.test_rows]

        def evaluator(theta: np.ndarray) -> float:
            folded = fold_model(LogisticModel.from_theta(theta), norm_stats,
                                config.norm_mode, config.variance_floor)
            return average_precision(folded.decision_scores(x_test), y_test)

    model, records = train(parts, len(mask), run_cfg, ledger=ledger,
                           evaluator=evaluator)
    return TrainOutcome(model, records, ledger, budget, norm_stats, mask, x_masked)


def score_splits(prepared: PreparedData, config: ExperimentConfig, model: LogisticModel,
                 stats: NormStats | None) -> list[dict]:
    """One metrics row per split: the model's AUPRC over that split's corpus rows.

    stats are the run's normalization statistics, None when it does not
    normalize. The model is folded over them (fold_model) and scores the
    feature set's columns of the sparse corpus matrix once; nothing is
    densified or normalized.
    """
    corpus = prepared.corpus
    labels = corpus.labels
    mask = resolve_mask(corpus.catalog, config.feature_set)
    folded = fold_model(model, stats, config.norm_mode, config.variance_floor)
    scores = folded.decision_scores(corpus.X.take_columns(mask))
    out = []
    for split_name, rows in (("train", prepared.train_rows), ("test", prepared.test_rows)):
        out.append({
            "feature_set": config.feature_set,
            "participants": config.n_participants,
            "epsilon": config.epsilon,
            "seed": config.seed,
            "split": split_name,
            "n_scripts": int(rows.size),
            "n_positive": int(labels[rows].sum()),
            "auprc": average_precision(scores[rows], labels[rows]),
        })
    return out


@dataclass(eq=False)
class PipelineResult:
    prepared: PreparedData
    participants: list[ParticipantDataset]
    outcome: TrainOutcome
    metrics: list[dict]


def run_pipeline(config: ExperimentConfig) -> PipelineResult:
    """Full in-memory run: corpus, partition, training, evaluation."""
    prepared = prepare_data(config)
    participants = build_participants(prepared, config)
    outcome = train_in_memory(prepared, participants, config)
    metrics = score_splits(prepared, config, outcome.model, outcome.norm_stats)
    return PipelineResult(prepared, participants, outcome, metrics)


# --------------------------------------------------------- file stages

def _traces_written(stream, fh):
    """Pass the stream's items on, writing each script's trace line first."""
    for item in stream:
        fh.write(trace_to_json_line(item[0].trace))
        fh.write("\n")
        yield item


def stage_generate(config: ExperimentConfig, run_dir) -> dict:
    """Write the corpus artifacts in one pass over the generator stream.

    Each script's trace goes to traces.jsonl and its feature row's
    nonzeros into features.npz as it passes, so neither the traces nor
    a dense matrix is ever held. The manifest records the sha256 of
    features.npz, placements.json, ranking.txt and split.json, which
    the later stages check.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    catalog = default_catalog()
    stream, placements, ranking, split, manifest = generate_stream(
        config.resolved_generator, catalog)
    with atomic_write(run_dir / TRACES_FILE) as fh:
        corpus = ScriptCorpus.collect(_traces_written(stream, fh), catalog, placements)
    write_npz(run_dir / FEATURES_FILE, corpus.to_arrays())
    save_catalog(catalog, run_dir / CATALOG_FILE)
    _write_json(placements, run_dir / PLACEMENTS_FILE)
    save_ranking(ranking, run_dir / RANKING_FILE)
    _write_json(split.to_dict(), run_dir / SPLIT_FILE)
    manifest = {**manifest, "experiment_config": config.to_dict(),
                **{key: file_sha256(run_dir / name) for name, key in _RECORDED.items()}}
    _write_json(manifest, run_dir / GENERATE_MANIFEST_FILE)
    return manifest


def _check_config(config: ExperimentConfig, stored: Mapping, fields: Sequence[str],
                  built: str, rerun: str) -> None:
    """Refuse artifacts built under other values of the config fields that decide them."""
    current = config.to_dict()
    for key in fields:
        if stored.get(key) != current[key]:
            raise StageDependencyError(
                f"{built} was built with {key}={stored.get(key)!r} but the config says "
                f"{current[key]!r}; re-run the {rerun} stage")


def _check_corpus_config(config: ExperimentConfig, manifest: dict, run_dir: Path) -> None:
    _check_config(config, manifest.get("experiment_config", {}), CORPUS_FIELDS,
                  f"the corpus in {run_dir}", "generate")


def stage_partition(config: ExperimentConfig, run_dir) -> dict:
    """Draw every participant's domains and fix the knowledge limits.

    Starts from load_corpus, as train and evaluate do; each entry's
    n_scripts is its build_partition view's size before the knowledge limits.
    """
    run_dir = Path(run_dir)
    prepared = load_corpus(run_dir)
    _check_corpus_config(config, prepared.manifest, run_dir)
    draws, spec = _partition_plan(prepared.train_ranking, config)
    views = build_partition(prepared.corpus, draws, LimitedKnowledgeSpec(0.0, ()))
    participants = [{"participant_id": pid, "urls": domains, "n_scripts": view.n_scripts}
                    for pid, (domains, view) in enumerate(zip(draws, views))]
    manifest = {
        "master_seed": config.seed,
        "n_participants": config.n_participants,
        "urls_per_participant": config.urls_per_participant,
        "zipf_exponent": config.zipf_exponent,
        "limited_knowledge": spec.to_dict(),
        "participants": participants,
        "config": config.to_dict(),
    }
    _write_json(manifest, run_dir / PARTITION_FILE)
    return manifest


def load_corpus(run_dir) -> PreparedData:
    """Read the generate stage's artifacts back as the PreparedData prepare_data gives.

    Refuses (StageDependencyError) a run directory missing any of the
    generate stage's artifacts but traces.jsonl, a features.npz,
    placements.json, ranking.txt or split.json whose sha256 differs from the
    one generate_manifest.json records (or that it records none for), and a
    catalog.json whose catalog_hash differs from the recorded one.
    The manifest is the stored one, with the run's config snapshot.
    """
    run_dir = Path(run_dir)
    manifest = _read_record(run_dir, GENERATE_MANIFEST_FILE, _read_generate_manifest,
                            _artifact(run_dir, GENERATE_MANIFEST_FILE))
    data = {name: _artifact(run_dir, name, manifest.get(key), "generate")
            for name, key in _RECORDED.items()}
    catalog = parse_catalog(_artifact(run_dir, CATALOG_FILE), run_dir / CATALOG_FILE)
    if catalog_hash(catalog) != manifest.get("catalog_hash"):
        raise StageDependencyError(
            f"{CATALOG_FILE} in {run_dir} is not the one this run recorded; "
            f"re-run the generate stage")
    ranking = parse_ranking(data[RANKING_FILE], run_dir / RANKING_FILE)
    placements = _read_record(run_dir, PLACEMENTS_FILE, _PLACEMENTS, data[PLACEMENTS_FILE])
    split = _read_record(run_dir, SPLIT_FILE, SplitSpec.from_dict, data[SPLIT_FILE])
    corpus = ScriptCorpus.from_arrays(read_npz(data[FEATURES_FILE]), catalog, placements)
    return PreparedData(corpus, ranking, split, manifest)


def corpus_from_traces(run_dir) -> ScriptCorpus:
    """Audit path: rebuild the corpus by re-parsing and relabelling traces.jsonl.

    No stage reads it; it shows that features.npz holds exactly what
    the traces yield under the run's catalog and labeling rules.
    """
    run_dir = Path(run_dir)
    scripts = []
    for trace in parse_trace_file(run_dir / TRACES_FILE):
        found = label(trace)
        scripts.append(LabeledScript(trace, found.is_fingerprinting(), found.types()))
    catalog = parse_catalog(_artifact(run_dir, CATALOG_FILE), run_dir / CATALOG_FILE)
    return ScriptCorpus.from_scripts(scripts, catalog, _read_record(
        run_dir, PLACEMENTS_FILE, _PLACEMENTS, _artifact(run_dir, PLACEMENTS_FILE)))


def participants_from_manifest(manifest: dict,
                               corpus: ScriptCorpus) -> list[ParticipantDataset]:
    """Rebuild the views from partition.json's domain draws and knowledge limits.

    manifest is partition.json's object, whose keys the caller checked;
    each participant's urls and the limits are read by the typed reader
    (FieldError naming the dotted path).
    """
    draws = []
    for i, entry in enumerate(read_value(tuple[dict, ...], manifest["participants"],
                                         "participants")):
        check_keys(entry, ("urls",), ("n_scripts", "participant_id"), f"participants[{i}]")
        draws.append(read_value(tuple[str, ...], entry["urls"], f"participants[{i}].urls"))
    return build_partition(corpus, draws, read_value(
        LimitedKnowledgeSpec, manifest["limited_knowledge"], "limited_knowledge"))


def stage_train(config: ExperimentConfig, run_dir) -> TrainOutcome:
    """Calibrate, normalize and train from the stored corpus artifacts."""
    run_dir = Path(run_dir)
    partition_bytes = _artifact(run_dir, PARTITION_FILE)
    prepared = load_corpus(run_dir)
    _check_corpus_config(config, prepared.manifest, run_dir)

    def stored_participants(manifest) -> list[ParticipantDataset]:
        # a config snapshot it lacks is refused by the config check, as not this run's
        check_keys(manifest, ("limited_knowledge", "participants"), _PARTITION_KEYS)
        _check_config(config, read_value(dict, manifest.get("config", {}), "config"),
                      PARTITION_FIELDS, PARTITION_FILE, "partition")
        return participants_from_manifest(manifest, prepared.corpus)

    participants = _read_record(run_dir, PARTITION_FILE, stored_participants, partition_bytes)
    outcome = train_in_memory(prepared, participants, config)
    norm_stats_sha256 = None
    if outcome.norm_stats is not None:
        save_norm_stats(outcome.norm_stats, run_dir / NORM_STATS_FILE)
        norm_stats_sha256 = file_sha256(run_dir / NORM_STATS_FILE)
    else:
        (run_dir / NORM_STATS_FILE).unlink(missing_ok=True)
    ledger = LedgerRecord(config.delta, tuple((e.mechanism, e.q, e.z, e.count)
                                              for e in outcome.ledger.entries))
    _write_json(ledger.to_dict(), run_dir / LEDGER_FILE)
    checkpoint = Checkpoint(
        weights=tuple(outcome.model.weights.tolist()), bias=outcome.model.bias,
        feature_set=config.feature_set, normalize=config.normalize, norm_mode=config.norm_mode,
        # load_corpus refused a catalog whose hash is not the manifest's
        catalog_hash=prepared.manifest["catalog_hash"],
        z_norm=outcome.budget.z_norm, z_train=outcome.budget.z_train,
        normstats_sha256=norm_stats_sha256,
        partition_sha256=hashlib.sha256(partition_bytes).hexdigest(),
        ledger_sha256=file_sha256(run_dir / LEDGER_FILE), config=config)
    _write_json(checkpoint.to_dict(), run_dir / CHECKPOINT_FILE)
    write_csv(run_dir / ROUND_RECORDS_FILE, ROUND_RECORDS_HEADER,
               [(r.round_index, r.sampled, r.update_norm, r.theta_norm, r.auprc)
                for r in outcome.records],
               snapshot=config_snapshot_line(config))
    return outcome


def stage_evaluate(run_dir) -> list[dict]:
    """Score both splits with the stored checkpoint and write metrics.csv.

    The checkpoint's model is folded over normstats.json's statistics
    and scores the sparse corpus matrix (score_splits), so evaluate holds
    no dense copy of the feature set's columns.
    """
    run_dir = Path(run_dir)
    checkpoint = _read_record(run_dir, CHECKPOINT_FILE, Checkpoint.from_dict,
                              _artifact(run_dir, CHECKPOINT_FILE))
    _artifact(run_dir, PARTITION_FILE, checkpoint.partition_sha256, "train")
    config = checkpoint.config
    prepared = load_corpus(run_dir)
    _check_corpus_config(config, prepared.manifest, run_dir)
    corpus = prepared.corpus
    # load_corpus refused a catalog whose hash is not the manifest's
    if checkpoint.catalog_hash != prepared.manifest["catalog_hash"]:
        raise StageDependencyError(
            "checkpoint was trained against a different catalog; re-run training")
    mask = resolve_mask(corpus.catalog, config.feature_set)
    if len(checkpoint.weights) != mask.size:
        raise StageDependencyError(
            f"checkpoint holds {len(checkpoint.weights)} weights but the feature set has "
            f"{mask.size} slots; re-run training")
    model = LogisticModel(np.array(checkpoint.weights), checkpoint.bias)
    stats = None
    if config.normalize:
        stats = _read_record(run_dir, NORM_STATS_FILE, NormStats.from_dict, _artifact(
            run_dir, NORM_STATS_FILE, checkpoint.normstats_sha256, "train"))
    rows_out = score_splits(prepared, config, model, stats)
    write_csv(run_dir / METRICS_FILE, METRICS_HEADER,
               [tuple(r[k] for k in METRICS_HEADER) for r in rows_out],
               snapshot=config_snapshot_line(config))
    return rows_out


def stage_account(run_dir) -> dict:
    """Replay the ledger and report per-phase and total privacy cost.

    Next to a checkpoint.json, a ledger.json whose sha256 is not the one
    the checkpoint records is refused; a bare ledger is replayed as is.
    """
    run_dir = Path(run_dir)
    recorded = _UNGUARDED
    if (run_dir / CHECKPOINT_FILE).exists():
        recorded = _read_record(run_dir, CHECKPOINT_FILE, Checkpoint.from_dict,
                                _artifact(run_dir, CHECKPOINT_FILE)).ledger_sha256
    stored = _read_record(run_dir, LEDGER_FILE, LedgerRecord.from_dict,
                          _artifact(run_dir, LEDGER_FILE, recorded, "train"))
    delta, entries = stored.delta, stored.entries
    total = PrivacyLedger()
    phases: dict[tuple[str, float, float], PrivacyLedger] = {}
    for mechanism, q, z, count in entries:
        total.record(mechanism, q, z, count)
        phases.setdefault((mechanism, q, z), PrivacyLedger()).record(mechanism, q, z, count)

    def rdp_list(vec: np.ndarray):
        return None if np.isinf(vec).any() else [float(v) for v in vec]

    epsilon, best_order = (epsilon_and_order(total.total_rdp, total.orders, delta)
                           if entries else (math.inf, None))
    report = {
        "delta": delta,
        "epsilon": _encode_epsilon(epsilon),
        "best_order": best_order,
        "n_queries": sum(e[3] for e in entries),
        "orders": [float(a) for a in total.orders],
        "total_rdp": rdp_list(total.total_rdp) if entries else None,
        "phases": [
            {"mechanism": name,
             "n_queries": sum(e.count for e in lg.entries),
             "q": q,
             "z": z,
             "epsilon_alone": _encode_epsilon(lg.epsilon(delta)),
             "rdp": rdp_list(lg.total_rdp)}
            for (name, q, z), lg in sorted(phases.items())
        ],
    }
    _write_json(report, run_dir / PRIVACY_REPORT_FILE)
    return report
