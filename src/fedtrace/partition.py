"""Domain-ranked corpus partitioning across simulated participants.

Each participant visits D domains, drawn without replacement with
probability proportional to rank^(-exponent) (renormalized after every
draw), and holds every script loaded on those domains, deduplicated by
script id. The draw uses the exponential-race formulation: domain i
gets key Exp(1)/w_i and the D smallest keys win, in key order. That is
distributionally identical to sequential renormalized sampling and
needs one pass over the weights.

Feature rows live in one shared corpus matrix, kept sparse (csr.CSRMatrix,
about 1% nonzero); only the columns of one feature set are ever made dense
(ScriptCorpus.columns). A participant dataset is a view described by
row indices into the corpus matrix (or into a masked and normalized
matrix with the same rows), so ten thousand participants cost index
arrays rather than matrix copies. Rows are sliced on each access, not
cached per participant; a view over the sparse corpus matrix densifies
just its own rows.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import features
from .artifacts import atomic_write
from .config import JsonConfig
from .csr import CSRMatrix
from .errors import FieldError, InsufficientData, InvalidInput, ParseError
from .features import FeatureCatalog
from .seeding import DOMAIN_SAMPLING, LIMITED_KNOWLEDGE, derive_rng
from .traces import FP_TYPES, LabeledScript, types_to_bitmask

DEFAULT_URLS_PER_PARTICIPANT = 50
DEFAULT_ZIPF_EXPONENT = 1.0
N_TYPE_COMBINATIONS = (1 << len(FP_TYPES)) - 1  # non-empty subsets of the four types
KL_SMOOTHING = 1e-3
NON_IID_SAMPLE_SIZE = 1000  # participants the non-iidness score averages over at most


@dataclass(frozen=True, slots=True)
class DomainRanking:
    """Domains ordered by popularity; position i holds rank i+1."""

    domains: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.domains)) != len(self.domains):
            raise InvalidInput("ranking contains duplicate domains")

    def __len__(self) -> int:
        return len(self.domains)

    def __iter__(self):
        return iter(self.domains)

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self.domains) + 1)

    def pairs(self) -> list[tuple[str, int]]:
        return [(d, i + 1) for i, d in enumerate(self.domains)]

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, int]]) -> "DomainRanking":
        for i, (_, rank) in enumerate(pairs):
            if rank != i + 1:
                raise InvalidInput(
                    f"ranks must be contiguous from 1: position {i} has rank {rank}")
        return cls(tuple(domain for domain, _ in pairs))

    def weights(self, exponent: float) -> np.ndarray:
        if exponent <= 0:
            raise InvalidInput(f"zipf exponent must be positive: {exponent}")
        return self.ranks.astype(float) ** -exponent


def parse_ranking(data: bytes, path=None) -> DomainRanking:
    """The ranking that a rank<TAB>domain file's bytes hold; path names the file in errors."""
    pairs = []
    for lineno, line in enumerate(io.StringIO(data.decode("utf-8"), newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError("expected 'rank<TAB>domain'", line=lineno, path=path)
        rank_text, domain = parts
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(f"bad rank {rank_text!r}", line=lineno, path=path) from None
        pairs.append((domain, rank))
    try:
        return DomainRanking.from_pairs(pairs)
    except InvalidInput as exc:
        raise ParseError(str(exc), path=path) from exc


def save_ranking(ranking: DomainRanking, path) -> None:
    with atomic_write(path) as fh:
        for domain, rank in ranking.pairs():
            fh.write(f"{rank}\t{domain}\n")


def zipf_sample_domains(ranking: DomainRanking, d: int, exponent: float = DEFAULT_ZIPF_EXPONENT,
                        rng: np.random.Generator | None = None) -> list[str]:
    """Draw d domains without replacement, P(draw) proportional to rank^-exponent."""
    if rng is None:
        raise InvalidInput("zipf_sample_domains requires an explicit rng")
    if d < 1:
        raise InvalidInput(f"need at least one draw: {d}")
    if d > len(ranking):
        raise InvalidInput(f"cannot draw {d} domains from {len(ranking)}")
    weights = ranking.weights(exponent)
    keys = rng.exponential(size=len(weights)) / weights
    if d == len(ranking):
        winners = np.argsort(keys, kind="stable")
    else:
        part = np.argpartition(keys, d - 1)[:d]
        winners = part[np.argsort(keys[part], kind="stable")]
    return [ranking.domains[i] for i in winners]


@dataclass(eq=False)
class ScriptCorpus:
    """Shared feature matrix plus the domain -> row-index placement map.

    The one container of feature rows: collect gathers them as they
    arrive, and to_arrays/from_arrays are features.npz's format. X is
    the CSRMatrix the rows arrive in (float32 values over int32 column
    indices) over the three arrays features.npz stores, never a dense
    copy; columns(mask) densifies one feature set's columns.
    """

    catalog: FeatureCatalog
    script_ids: tuple[str, ...]
    X: CSRMatrix             # (n_scripts, slot_count)
    labels: np.ndarray       # bool
    fp_bitmasks: np.ndarray  # uint8 over FP_TYPES bits
    domain_rows: dict[str, np.ndarray]

    def __post_init__(self):
        n = len(self.script_ids)
        if self.X.shape != (n, self.catalog.slot_count):
            raise InvalidInput(f"feature matrix is {self.X.shape[0]}x{self.X.shape[1]} but "
                               f"there are {n} scripts and {self.catalog.slot_count} "
                               f"catalog slots")
        if self.labels.shape != (n,) or self.fp_bitmasks.shape != (n,):
            raise InvalidInput("labels and bitmasks need one entry per script")

    @property
    def n_scripts(self) -> int:
        return len(self.script_ids)

    def rows_for_domain(self, domain: str) -> np.ndarray:
        try:
            return self.domain_rows[domain]
        except KeyError:
            raise InvalidInput(f"unknown domain: {domain!r}") from None

    def columns(self, mask: np.ndarray) -> np.ndarray:
        """The masked columns of every row as a dense C-order float32 array."""
        return self.X.take_columns(mask).toarray()

    @classmethod
    def from_scripts(cls, scripts: Sequence[LabeledScript], catalog: FeatureCatalog,
                     placements: Mapping[str, Sequence[str]]) -> "ScriptCorpus":
        """Extract features for every distinct script id (first trace wins).

        placements maps domain -> script ids in load order; scripts listed
        under a domain must exist in the corpus. The rows are filled one at
        a time into a reused buffer and kept as their nonzeros, as in
        synth.generate_stream.
        """
        order: dict[str, LabeledScript] = {}
        for item in scripts:
            order.setdefault(item.trace.script_id, item)

        def rows():
            row = np.zeros(catalog.slot_count, dtype=np.float32)
            for item in order.values():
                features.fill_feature_row(item.trace, catalog, row)
                yield (item, *features.take_nonzeros(row))

        return cls.collect(rows(), catalog, placements)

    @classmethod
    def collect(cls, items: Iterable[tuple[LabeledScript, np.ndarray, np.ndarray]],
                catalog: FeatureCatalog,
                placements: Mapping[str, Sequence[str]]) -> "ScriptCorpus":
        """Gather (script, columns, values) rows in the order they arrive.

        placements maps domain -> script ids in load order; every id it
        lists must arrive as a row.
        """
        ids, labels, masks, indices, data = [], [], [], [], []
        for script, cols, vals in items:
            ids.append(script.trace.script_id)
            labels.append(script.label)
            masks.append(types_to_bitmask(script.fp_types))
            indices.append(cols)
            data.append(vals)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum([c.size for c in indices], out=indptr[1:])
        X = CSRMatrix(np.concatenate(data or [np.empty(0, np.float32)]),
                      np.concatenate(indices or [np.empty(0, np.int32)]),
                      indptr, (len(ids), catalog.slot_count))
        return cls(catalog, tuple(ids), X, np.asarray(labels, dtype=bool),
                   np.asarray(masks, dtype=np.uint8), rows_by_domain(placements, ids))

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The arrays features.npz stores, in its member order."""
        return {"shape": np.asarray(self.X.shape, dtype=np.int64),
                "indptr": self.X.indptr, "indices": self.X.indices,
                "data": self.X.data, "labels": self.labels,
                "fp_bitmasks": self.fp_bitmasks,
                "script_ids": np.asarray(self.script_ids, dtype=str)}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray], catalog: FeatureCatalog,
                    placements: Mapping[str, Sequence[str]]) -> "ScriptCorpus":
        """The corpus to_arrays wrote; InvalidInput if the arrays are malformed.

        The arrays come from a file, so CSRMatrix.checked validates the
        matrix structure before any row is read. They may be views into
        the file's bytes (artifacts.read_npz): the corpus keeps copies, so
        the bytes can be freed, and reads script_ids (a 1-d unicode
        array) into strings.
        """
        try:
            X = CSRMatrix.checked(*(np.array(arrays[name]) for name in ("data", "indices",
                                                                        "indptr")),
                                  arrays["shape"])
            ids = arrays["script_ids"]
            if ids.dtype.kind != "U" or ids.ndim != 1:
                raise InvalidInput(f"script_ids must be a 1-d unicode array, not "
                                   f"{ids.ndim}-d {ids.dtype}")
            script_ids = tuple(ids.tolist())
            labels = np.array(arrays["labels"], dtype=bool)
            fp_bitmasks = np.array(arrays["fp_bitmasks"], dtype=np.uint8)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad feature rows: {exc}") from None
        return cls(catalog, script_ids, X, labels, fp_bitmasks,
                   rows_by_domain(placements, script_ids))


def rows_by_domain(placements: Mapping[str, Sequence[str]],
                   script_ids: Sequence[str]) -> dict[str, np.ndarray]:
    """Map each domain's script ids (load order kept) to corpus row indices.

    Every id placements lists is looked up in one flat pass; each
    domain's rows are its slice of that one array.
    """
    row_of = dict(zip(script_ids, range(len(script_ids))))
    try:
        flat = np.fromiter(map(row_of.__getitem__, itertools.chain.from_iterable(
            placements.values())), dtype=np.intp)
    except KeyError as exc:
        sid = exc.args[0]
        domain = next(d for d, sids in placements.items() if sid in sids)
        raise InvalidInput(f"domain {domain!r} lists unknown script {sid!r}") from None
    bounds = [0, *itertools.accumulate(map(len, placements.values()))]
    return {domain: flat[start:stop]
            for domain, start, stop in zip(placements, bounds, bounds[1:])}


@dataclass(eq=False)
class ParticipantDataset:
    """One participant's visited urls and the corpus rows those urls load.

    rows index x and the corpus-wide label and bitmask arrays, each
    with one entry per corpus script. x starts as the sparse corpus
    matrix; over(x) gives the same rows over a dense masked or
    normalized matrix. features is always dense. The view
    holds no reference to the corpus itself, so a view over a small
    matrix does not keep the corpus matrix alive.
    """

    participant_id: int
    urls: tuple[str, ...]
    rows: np.ndarray  # indices into the corpus, deduplicated, first-seen order
    x: np.ndarray | CSRMatrix
    corpus_labels: np.ndarray    # bool
    corpus_bitmasks: np.ndarray  # uint8 over FP_TYPES bits

    def __post_init__(self):
        n = self.x.shape[0]
        if self.corpus_labels.shape != (n,) or self.corpus_bitmasks.shape != (n,):
            raise InvalidInput("matrix, labels and bitmasks need one entry per corpus script")

    def over(self, x: np.ndarray) -> "ParticipantDataset":
        """The same rows over another matrix with one row per corpus script."""
        return dataclasses.replace(self, x=x)

    @property
    def n_scripts(self) -> int:
        return int(self.rows.size)

    @property
    def features(self) -> np.ndarray:
        if isinstance(self.x, CSRMatrix):
            return self.x.take_rows(self.rows).toarray()
        return self.x[self.rows]

    @property
    def labels(self) -> np.ndarray:
        return self.corpus_labels[self.rows]

    @property
    def fp_bitmasks(self) -> np.ndarray:
        return self.corpus_bitmasks[self.rows]


def draw_domains(ranking: DomainRanking, n_participants: int,
                 urls_per_participant: int = DEFAULT_URLS_PER_PARTICIPANT,
                 zipf_exponent: float = DEFAULT_ZIPF_EXPONENT,
                 master_seed: int = 0) -> list[list[str]]:
    """Sample every participant's domains from its own seeded stream.

    Stream k derives from (master_seed, domain-sampling tag, k), so the
    result does not depend on construction order.
    """
    if n_participants < 1:
        raise InvalidInput(f"need at least one participant: {n_participants}")
    return [zipf_sample_domains(ranking, urls_per_participant, zipf_exponent,
                                derive_rng(master_seed, DOMAIN_SAMPLING, pid))
            for pid in range(n_participants)]


@dataclass(frozen=True, slots=True)
class LimitedKnowledgeSpec(JsonConfig):
    """Which participants see only one fingerprinting type, and which type.

    to_dict/from_dict are partition.json's "limited_knowledge" object.
    """

    fraction: float
    assignments: tuple[tuple[int, str], ...]  # (participant_id, allowed type)

    def _check(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise FieldError("fraction", f"must be in [0, 1]: {self.fraction}")
        for i, (pid, allowed) in enumerate(self.assignments):
            if allowed not in FP_TYPES:
                raise FieldError(f"assignments[{i}][1]", f"unknown fingerprinting type "
                                 f"{allowed!r} for participant {pid}")


def make_limited_knowledge(participant_ids: Sequence[int], fraction: float,
                           master_seed: int = 0) -> LimitedKnowledgeSpec:
    """Pick round(fraction * W) participants and give each one allowed type."""
    if not 0.0 <= fraction <= 1.0:
        raise InvalidInput(f"fraction must be in [0, 1]: {fraction}")
    ids = sorted(int(p) for p in participant_ids)
    rng = derive_rng(master_seed, LIMITED_KNOWLEDGE)
    n_affected = round(fraction * len(ids))
    chosen = rng.permutation(len(ids))[:n_affected]
    chosen.sort()
    kinds = rng.integers(0, len(FP_TYPES), size=n_affected)
    assignments = tuple((ids[i], FP_TYPES[k]) for i, k in zip(chosen, kinds))
    return LimitedKnowledgeSpec(fraction, assignments)


def build_partition(corpus: ScriptCorpus, draws: Sequence[Sequence[str]],
                    spec: LimitedKnowledgeSpec) -> list[ParticipantDataset]:
    """One view per draw: participant k holds the scripts of the domains draws[k].

    A view's rows are its domains' rows concatenated and deduplicated in
    first-seen order. A participant the spec limits keeps its benign
    scripts and those of its allowed type. An unknown domain raises
    InvalidInput.
    """
    allowed = dict(spec.assignments)
    views = []
    for pid, domains in enumerate(draws):
        chunks = [corpus.rows_for_domain(d) for d in domains]
        rows = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
        if rows.size:
            _, first = np.unique(rows, return_index=True)
            rows = rows[np.sort(first)]
        if pid in allowed:
            masks = corpus.fp_bitmasks[rows]
            rows = rows[(masks == 0) | ((masks & types_to_bitmask((allowed[pid],))) != 0)]
        views.append(ParticipantDataset(pid, tuple(domains), rows, corpus.X, corpus.labels,
                                        corpus.fp_bitmasks))
    return views


def _combination_counts(dataset: ParticipantDataset) -> np.ndarray:
    masks = dataset.fp_bitmasks
    fp = masks[masks != 0]
    return np.bincount(fp, minlength=N_TYPE_COMBINATIONS + 1)[1:].astype(float)


def non_iidness_score(participants: Sequence[ParticipantDataset],
                      rng: np.random.Generator | None = None) -> float:
    """Mean pairwise symmetrized KL over fingerprinting-type-combination mixes.

    Participants with no fingerprinting scripts carry no distribution and
    are excluded before sampling. Each remaining participant's counts over
    the 15 non-empty type combinations get additive smoothing, and the
    score averages (KL(P||Q) + KL(Q||P)) / 2 over unordered pairs. With
    more than NON_IID_SAMPLE_SIZE eligible participants, rng draws that
    many of them.
    """
    eligible = [(p.participant_id, _combination_counts(p)) for p in participants]
    eligible = [(pid, c) for pid, c in eligible if c.sum() > 0]
    if len(eligible) < 2:
        raise InsufficientData(
            f"need at least 2 participants with fingerprinting scripts, "
            f"have {len(eligible)}")
    eligible.sort(key=lambda item: item[0])
    if len(eligible) > NON_IID_SAMPLE_SIZE:
        if rng is None:
            raise InvalidInput("sampling participants requires an rng")
        idx = rng.choice(len(eligible), size=NON_IID_SAMPLE_SIZE, replace=False)
        eligible = [eligible[i] for i in np.sort(idx)]
    counts = np.stack([c for _, c in eligible])
    p = (counts + KL_SMOOTHING) / (counts.sum(axis=1, keepdims=True)
                                   + KL_SMOOTHING * N_TYPE_COMBINATIONS)
    logp = np.log(p)
    self_score = (p * logp).sum(axis=1)
    cross = p @ logp.T  # cross[i, j] = sum_c P_i[c] log P_j[c]
    k = len(eligible)
    # sum over ordered pairs of KL(P_i || P_j) = (k-1) * sum_i self_i - sum_{i != j} cross_ij
    ordered = (k - 1) * self_score.sum() - (cross.sum() - np.trace(cross))
    return float(ordered / (k * (k - 1)))
