"""Synthetic trace corpus generator.

Emits a desk-scale corpus whose label statistics mirror a realistic
crawl: sparse positives (default prevalence 0.41%), a mix over the 15
fingerprinting-type combinations, and near-miss negatives that satisfy
every detector condition except one. Fingerprinting scripts are built
so the rule-based labeler fires on exactly the intended type set, and
the generator verifies that claim on every script it produces.

Beyond the rule conjuncts, scripts carry plantable linear signal so a
model can out-generalize the rules: designated custom features fire
with probability 0.9 on positives of the matching technique versus
0.02 on negatives, and a small set of device-probing APIs is called
far more often by positives. Any benign script whose random signal
draws would complete a detector conjunction is rebuilt without the
extra calls, keeping generator and labeler in exact agreement.

All randomness flows through one stream derived from the config seed,
so a config fully determines the corpus.

Every call record whose content depends on no draw is built once by
_CallBuilder and shared by all scripts. Records drawn per script
(fillText's text, fillStyle's colour) are built for that script. Both
kinds take the same paths: features.fill_feature_row fills a row from
the record's content, traces.call_fragment encodes it once per record
object when its trace is written, and heuristics.label labels a
generated trace by the same table lookups as a parsed one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import heuristics
from .config import JsonConfig
from .errors import ConfigError, InvalidInput
from .features import (
    CustomFeatureSpec,
    FeatureCatalog,
    catalog_hash,
    classify_custom,
    fill_feature_row,
    signal_slots,
    take_nonzeros,
)
from .partition import DomainRanking, ScriptCorpus
from .seeding import GENERATOR, derive_rng
from .traces import (
    FP_TYPES,
    LabeledScript,
    ScriptTrace,
    api_call,
    canonical_script_id,
)

DEFAULT_PREVALENCE = 0.0041
DEFAULT_NEAR_MISS_RATE = 0.05
DEFAULT_POOL_SIZE = 300
DEFAULT_SCRIPTS_PER_DOMAIN = 10.0
DEFAULT_SHARED_RATE = 0.02
TRAIN_FRACTION = 0.8
SIGNAL_FIRE_FP = 0.9
SIGNAL_FIRE_BENIGN = 0.02
FLAVOR_FIRE_FP = 0.5
FLAVOR_FIRE_BENIGN = 0.04

# mass over the 15 non-empty type combinations, indexed by bitmask-1
# (bit order: canvas, canvas_font, webrtc, audio); singles dominate
DEFAULT_TYPE_MIX = (
    0.35,   # canvas
    0.18,   # canvas_font
    0.08,   # canvas+font
    0.17,   # webrtc
    0.04,   # canvas+webrtc
    0.02,   # font+webrtc
    0.015,  # canvas+font+webrtc
    0.08,   # audio
    0.02,   # canvas+audio
    0.01,   # font+audio
    0.005,  # canvas+font+audio
    0.01,   # webrtc+audio
    0.005,  # canvas+webrtc+audio
    0.005,  # font+webrtc+audio
    0.01,   # all four
)

_NEAR_MISS_PATTERNS = ("canvas_save", "font_boundary", "rtc_no_ice")
_HEURISTIC_INTERFACES = frozenset(
    heuristics.CANVAS_INTERFACES | heuristics.AUDIO_INTERFACES | {heuristics.RTC_INTERFACE})

_ARG_FILLER = ("#000000", "2d", "anonymous", "none", "auto", "en-US", 0.0, 1.0)
_EXTRA_FONTS = 10  # a canvas_font base probes FONT_THRESHOLD + 1 to + _EXTRA_FONTS fonts
_AUDIO_PROBES = (("AudioContext.createOscillator", ()),
                 ("AudioContext.createDynamicsCompressor", ()),
                 ("OfflineAudioContext.startRendering", ()),
                 ("BaseAudioContext.destination", ()))


@dataclass(frozen=True, slots=True)
class GeneratorConfig(JsonConfig):
    _error = ConfigError
    n_scripts: int
    fp_prevalence: float = DEFAULT_PREVALENCE
    fp_type_mix: tuple[float, ...] = DEFAULT_TYPE_MIX
    near_miss_rate: float = DEFAULT_NEAR_MISS_RATE
    benign_pool_size: int = DEFAULT_POOL_SIZE
    n_domains: int | None = None
    scripts_per_domain_mean: float = DEFAULT_SCRIPTS_PER_DOMAIN
    shared_script_rate: float = DEFAULT_SHARED_RATE
    seed: int = 0

    def _check(self):
        for name, low in (("n_scripts", 1), ("benign_pool_size", 10), ("n_domains", 1),
                          ("scripts_per_domain_mean", 1), ("seed", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(name, f"must be >= {low}: {value}")
        if not 0.0 < self.fp_prevalence < 1.0:
            raise ConfigError("fp_prevalence", f"must be in (0, 1): {self.fp_prevalence}")
        mix = np.asarray(self.fp_type_mix, dtype=float)
        if mix.shape != (15,):
            raise ConfigError("fp_type_mix", f"needs 15 entries, got {mix.shape}")
        if (mix < 0).any() or abs(float(mix.sum()) - 1.0) > 1e-9:
            raise ConfigError("fp_type_mix", "must be non-negative and sum to 1")
        if not 0.0 <= self.near_miss_rate <= 1.0:
            raise ConfigError("near_miss_rate", f"must be in [0, 1]: {self.near_miss_rate}")
        if not 0.0 <= self.shared_script_rate < 1.0:
            raise ConfigError("shared_script_rate",
                              f"must be in [0, 1): {self.shared_script_rate}")


@dataclass(frozen=True, slots=True)
class SplitSpec(JsonConfig):
    """Domain-level 80/20 split, stratified by fingerprinting presence; split.json."""

    train_domains: tuple[str, ...]
    test_domains: tuple[str, ...]

    def _check(self):
        overlap = set(self.train_domains) & set(self.test_domains)
        if overlap:
            raise InvalidInput(f"split is not disjoint: {sorted(overlap)[:3]}")


@dataclass(eq=False)
class GeneratedCorpus:
    scripts: list[LabeledScript]
    placements: dict[str, list[str]]
    ranking: DomainRanking
    split: SplitSpec
    manifest: dict


# ------------------------------------------------------------------ plan

@dataclass(eq=False)
class _Plan:
    domains: list[str]
    domain_of_script: np.ndarray      # script index -> domain index
    kinds: list                       # int bitmask for FP, or near-miss pattern str, or None
    script_ids: list[str]
    extra_domains: dict[int, list[int]]  # script index -> extra placement domains
    split: SplitSpec
    fp_count: int
    near_miss_count: int


def _domain_sizes(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    p = 1.0 / config.scripts_per_domain_mean
    if config.n_domains is None:
        sizes = []
        total = 0
        while total < config.n_scripts:
            size = int(rng.geometric(p))
            sizes.append(size)
            total += size
        sizes[-1] -= total - config.n_scripts
        if sizes[-1] == 0:
            sizes.pop()
        return np.asarray(sizes, dtype=np.int64)
    draws = rng.geometric(p, size=config.n_domains).astype(np.float64)
    # largest-remainder apportionment of exactly n_scripts
    raw = draws / draws.sum() * config.n_scripts
    sizes = np.floor(raw).astype(np.int64)
    remainder = config.n_scripts - int(sizes.sum())
    if remainder:
        order = np.argsort(-(raw - sizes), kind="stable")
        sizes[order[:remainder]] += 1
    return sizes


def _make_plan(config: GeneratorConfig, rng: np.random.Generator) -> _Plan:
    n = config.n_scripts
    sizes = _domain_sizes(config, rng)
    domains = [f"site{i:05d}.example" for i in range(sizes.size)]
    domain_of_script = np.repeat(np.arange(sizes.size), sizes)

    fp_coins = rng.random(n) < config.fp_prevalence
    fp_idx = np.flatnonzero(fp_coins)
    mix = np.asarray(config.fp_type_mix, dtype=float)
    combos = rng.choice(15, size=fp_idx.size, p=mix / mix.sum()) + 1
    near_coins = rng.random(n) < config.near_miss_rate
    patterns = rng.integers(0, len(_NEAR_MISS_PATTERNS), size=n)

    kinds: list = [None] * n
    for j, i in enumerate(fp_idx):
        kinds[i] = int(combos[j])
    for i in np.flatnonzero(near_coins & ~fp_coins):
        kinds[i] = _NEAR_MISS_PATTERNS[patterns[i]]

    script_ids = [
        canonical_script_id(
            f"https://{domains[domain_of_script[i]]}/s{i}.js",
            hashlib.blake2b(f"{config.seed}:{i}".encode(), digest_size=8).hexdigest())
        for i in range(n)
    ]

    has_fp = np.zeros(sizes.size, dtype=bool)
    for i in fp_idx:
        has_fp[domain_of_script[i]] = True
    train_idx: list[int] = []
    test_idx: list[int] = []
    for stratum in (np.flatnonzero(has_fp), np.flatnonzero(~has_fp)):
        if stratum.size == 0:
            continue
        perm = stratum[rng.permutation(stratum.size)]
        n_train = int(round(TRAIN_FRACTION * stratum.size))
        if stratum.size >= 2:
            n_train = min(max(n_train, 1), stratum.size - 1)
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    split = SplitSpec(tuple(domains[i] for i in train_idx),
                      tuple(domains[i] for i in test_idx))

    # a small fraction of training-domain scripts also load on other
    # training domains (never across the split boundary)
    train_set = set(train_idx)
    extra: dict[int, list[int]] = {}
    if len(train_idx) >= 2 and config.shared_script_rate > 0:
        train_scripts = [i for i in range(n) if int(domain_of_script[i]) in train_set]
        share_coins = rng.random(len(train_scripts)) < config.shared_script_rate
        pool = np.asarray(train_idx)
        for k in np.flatnonzero(share_coins):
            i = train_scripts[k]
            n_extra = int(rng.integers(1, 3))
            choices = pool[rng.integers(0, pool.size, size=n_extra)]
            extras = [int(d) for d in choices if d != int(domain_of_script[i])]
            if extras:
                extra[i] = sorted(set(extras))

    return _Plan(domains, domain_of_script, kinds, script_ids, extra, split,
                 int(fp_idx.size), int((near_coins & ~fp_coins).sum()))


# ------------------------------------------------------------------ call synthesis

def call_matching(spec: CustomFeatureSpec):
    """One api call that the given custom feature predicate accepts."""
    if spec.match_kind == "strlen":
        value = "x" * int(spec.match_value)
    else:
        value = spec.match_value
    if spec.target == "argument":
        args = [_ARG_FILLER[0]] * spec.arg_index + [value]
        return api_call(spec.api_name, tuple(args))
    return api_call(spec.api_name, (), value)


class _CallBuilder:
    """Catalog-aware synthesis of one script's call list."""

    def __init__(self, catalog: FeatureCatalog, pool_size: int | None = None):
        # Every call record whose content is fixed is built here once and
        # shared by all scripts (ApiCallRecord is frozen).
        api_slots, custom_slots = signal_slots(catalog)
        signal_apis = [catalog.api_count_entries[s] for s in api_slots]
        self.signal_api_records = [api_call(name) for name in signal_apis]
        signal_specs = [catalog.custom_entries[s - catalog.n_api] for s in custom_slots]
        by_type: dict[str, list[CustomFeatureSpec]] = {t: [] for t in FP_TYPES}
        spillover = []
        for spec in signal_specs:
            by_type.get(classify_custom(spec), spillover).append(spec)
        # flat list in technique order so one coin vector covers the pass
        self.signal_flat = [(t, call_matching(spec)) for t in FP_TYPES for spec in by_type[t]]
        signal_set = set(signal_specs)
        flavor_specs = spillover + [
            spec for spec in catalog.custom_entries if spec not in signal_set
        ][:17]
        self.flavor_records = [call_matching(spec) for spec in flavor_specs]
        self.entropy_records = [api_call(name) for name in catalog.api_count_entries
                                if name.startswith("EntropyApi")]
        signal_api_set = set(signal_apis)
        pool = [
            name for name in catalog.api_count_entries
            if name.partition(".")[0] not in _HEURISTIC_INTERFACES
            and name not in signal_api_set
            and not name.startswith("EntropyApi")
        ][:pool_size]
        # per pool API: the bare call, then one call per filler argument
        self.pool = [[api_call(name)] + [api_call(name, (a,)) for a in _ARG_FILLER]
                     for name in pool]
        # the technique bases' calls that take no draw
        self.get_context = api_call("HTMLCanvasElement.getContext", ("2d",))
        self.to_data_url = api_call("HTMLCanvasElement.toDataURL",
                                    (), "data:image/png;base64," + "A" * 40)
        self.canvas_save = api_call("CanvasRenderingContext2D.save")
        # font j then measureText j, for j below the most fonts a base probes
        self.font_calls = [
            call
            for j in range(heuristics.FONT_THRESHOLD + _EXTRA_FONTS)
            for call in (api_call("CanvasRenderingContext2D.font", (f"{10 + j}px font{j}",)),
                         api_call("CanvasRenderingContext2D.measureText", ("gM",), 40.0 + j))]
        self.data_channel = api_call("RTCPeerConnection.createDataChannel", ("chan",))
        self.create_offer = api_call("RTCPeerConnection.createOffer")
        self.on_ice = api_call("RTCPeerConnection.onicecandidate", ("cb",))
        self.local_description = api_call("RTCPeerConnection.localDescription",
                                          (), "v=0 o=- s=-")
        self.rtc_close = api_call("RTCPeerConnection.close")
        self.audio_probes = [api_call(name, args) for name, args in _AUDIO_PROBES]
        self.analyser = api_call("AudioContext.createAnalyser")

    def pool_calls(self, rng, lo=3, hi=14) -> list:
        k = int(rng.integers(lo, hi))
        idx = rng.integers(0, len(self.pool), size=k).tolist()
        arg_coins = (rng.random(k) < 0.25).tolist()
        fillers = rng.integers(0, len(_ARG_FILLER), size=k).tolist()
        return [self.pool[i][f + 1 if coin else 0]
                for i, coin, f in zip(idx, arg_coins, fillers)]

    def entropy_calls(self, rng, fingerprinting: bool) -> list:
        if fingerprinting:
            n_apis = int(rng.integers(6, 11))
        elif rng.random() < 0.3:
            n_apis = int(rng.integers(1, 4))
        else:
            return []
        picks = rng.choice(len(self.entropy_records), size=n_apis, replace=False)
        return [self.entropy_records[i] for i in np.sort(picks).tolist()]

    def signal_calls(self, rng, types=None) -> list:
        """Designated-custom pass.

        Benign scripts (types None) roll every feature at the low rate;
        the label guard rebuilds the rare script whose rolls complete a
        detector conjunction. Fingerprinting scripts roll only their own
        techniques' features, so the rolls can never add a technique the
        plan did not choose.
        """
        coins = rng.random(len(self.signal_flat)).tolist()
        if types is None:
            return [call for coin, (_, call) in zip(coins, self.signal_flat)
                    if coin < SIGNAL_FIRE_BENIGN]
        return [call for coin, (t, call) in zip(coins, self.signal_flat)
                if t in types and coin < SIGNAL_FIRE_FP]

    def flavor_calls(self, rng, fingerprinting: bool) -> list:
        custom_rate = FLAVOR_FIRE_FP if fingerprinting else FLAVOR_FIRE_BENIGN
        coins = rng.random(len(self.flavor_records)).tolist()
        calls = [call for coin, call in zip(coins, self.flavor_records)
                 if coin < custom_rate]
        api_rate = 0.6 if fingerprinting else SIGNAL_FIRE_BENIGN
        coins = rng.random(len(self.signal_api_records)).tolist()
        for coin, call in zip(coins, self.signal_api_records):
            if coin < api_rate:
                repeats = 1 + int(rng.poisson(1.5)) if fingerprinting else 1
                calls += [call] * repeats
        return calls

    # -------------------------------------------------- per-technique bases

    def canvas_base(self, rng) -> list:
        calls = [self.get_context]
        for k in range(int(rng.integers(1, 4))):
            calls.append(api_call("CanvasRenderingContext2D.fillText",
                                  (f"sample text {int(rng.integers(1000))}", 2.0, 15.0)))
        calls.append(api_call("CanvasRenderingContext2D.fillStyle",
                              (f"#0{int(rng.integers(10, 100)):02d}",)))
        calls.append(self.to_data_url)
        return calls

    def font_base(self, rng, n_fonts: int | None = None) -> list:
        if n_fonts is None:
            n_fonts = heuristics.FONT_THRESHOLD + 1 + int(rng.integers(0, _EXTRA_FONTS))
        return self.font_calls[:2 * n_fonts]

    def webrtc_base(self, rng) -> list:
        setup = self.data_channel if rng.random() < 0.5 else self.create_offer
        gather = self.on_ice if rng.random() < 0.5 else self.local_description
        return [setup, gather]

    def audio_base(self, rng) -> list:
        calls = [self.audio_probes[int(rng.integers(0, len(self.audio_probes)))]]
        if rng.random() < 0.5:
            calls.append(self.analyser)
        return calls

    def near_miss_base(self, rng, pattern: str) -> list:
        if pattern == "canvas_save":
            return self.canvas_base(rng) + [self.canvas_save]
        if pattern == "font_boundary":
            return self.font_base(rng, n_fonts=heuristics.FONT_THRESHOLD)
        if pattern == "rtc_no_ice":
            return [self.data_channel, self.rtc_close]
        raise InvalidInput(f"unknown near-miss pattern: {pattern}")

    def fp_base(self, rng, bitmask: int) -> list:
        calls = []
        types = [FP_TYPES[b] for b in range(4) if bitmask >> b & 1]
        for t in types:
            if t == "canvas":
                calls += self.canvas_base(rng)
            elif t == "canvas_font":
                calls += self.font_base(rng)
            elif t == "webrtc":
                calls += self.webrtc_base(rng)
            elif t == "audio":
                calls += self.audio_base(rng)
        return calls


def _build_script(builder: _CallBuilder, rng, kind, script_id: str,
                  domain: str) -> LabeledScript:
    if isinstance(kind, int):
        types = frozenset(FP_TYPES[b] for b in range(4) if kind >> b & 1)
        calls = (builder.fp_base(rng, kind) + builder.pool_calls(rng)
                 + builder.entropy_calls(rng, True) + builder.signal_calls(rng, types)
                 + builder.flavor_calls(rng, True))
        trace = ScriptTrace(script_id, domain, tuple(calls))
        got = heuristics.label(trace)
        if got.types() != types:
            raise RuntimeError(
                f"generator produced type set {sorted(got.types())} "
                f"instead of {sorted(types)} for {script_id}")
        return LabeledScript(trace, True, types)

    base = (builder.near_miss_base(rng, kind) if isinstance(kind, str)
            else builder.pool_calls(rng, 4, 18))
    extras = (builder.entropy_calls(rng, False) + builder.signal_calls(rng)
              + builder.flavor_calls(rng, False))
    trace = ScriptTrace(script_id, domain, tuple(base + extras))
    if heuristics.label(trace).is_fingerprinting():
        # the random signal draws completed a detector conjunction; keep
        # the script benign by dropping the extras
        trace = ScriptTrace(script_id, domain, tuple(base))
        if heuristics.label(trace).is_fingerprinting():
            raise RuntimeError(f"benign base calls trip a detector for {script_id}")
    return LabeledScript(trace, False, frozenset())


# ------------------------------------------------------------------ entry points

def _placements(plan: _Plan, config: GeneratorConfig) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {d: [] for d in plan.domains}
    for i in range(config.n_scripts):
        out[plan.domains[plan.domain_of_script[i]]].append(plan.script_ids[i])
    for i, extras in sorted(plan.extra_domains.items()):
        for d in extras:
            out[plan.domains[d]].append(plan.script_ids[i])
    return out


def _manifest(plan: _Plan, config: GeneratorConfig, catalog: FeatureCatalog) -> dict:
    return {
        "config": config.to_dict(),
        "catalog_hash": catalog_hash(catalog),
        "n_scripts": config.n_scripts,
        "n_domains": len(plan.domains),
        "n_fingerprinting": plan.fp_count,
        "n_near_miss": plan.near_miss_count,
        "n_shared": len(plan.extra_domains),
        "n_train_domains": len(plan.split.train_domains),
        "n_test_domains": len(plan.split.test_domains),
    }


def generate_stream(config: GeneratorConfig, catalog: FeatureCatalog
                    ) -> tuple[Iterator[tuple[LabeledScript, np.ndarray, np.ndarray]],
                               dict[str, list[str]], DomainRanking, SplitSpec, dict]:
    """Each script with its feature row's nonzeros, plus plan-level metadata.

    The iterator yields (script, columns, values): the script's int32
    column indices in ascending order and their float32 values, filled
    through one reused row buffer, so no caller needs a dense matrix.
    The placement map, ranking, split and manifest are final before the
    iterator is consumed, so a caller can write scripts to disk one at a
    time.
    """
    rng = derive_rng(config.seed, GENERATOR)
    plan = _make_plan(config, rng)
    builder = _CallBuilder(catalog, config.benign_pool_size)

    def rows():
        row = np.zeros(catalog.slot_count, dtype=np.float32)
        for i in range(config.n_scripts):
            domain = plan.domains[plan.domain_of_script[i]]
            script = _build_script(builder, rng, plan.kinds[i], plan.script_ids[i], domain)
            fill_feature_row(script.trace, catalog, row)
            yield (script, *take_nonzeros(row))

    return (rows(), _placements(plan, config), DomainRanking(tuple(plan.domains)),
            plan.split, _manifest(plan, config, catalog))


def generate(config: GeneratorConfig, catalog: FeatureCatalog) -> GeneratedCorpus:
    """generate_stream's scripts with their traces, plus its plan-level metadata.

    Its one caller is bench/tests/test_checks.py; the package and tests/
    read generate_stream directly.
    """
    stream, placements, ranking, split, manifest = generate_stream(config, catalog)
    return GeneratedCorpus([item[0] for item in stream], placements, ranking, split,
                           manifest)


def generate_corpus(config: GeneratorConfig, catalog: FeatureCatalog
                    ) -> tuple[ScriptCorpus, DomainRanking, SplitSpec, dict]:
    """Collect generate_stream's rows into the sparse corpus, dropping each trace."""
    stream, placements, ranking, split, manifest = generate_stream(config, catalog)
    return ScriptCorpus.collect(stream, catalog, placements), ranking, split, manifest
