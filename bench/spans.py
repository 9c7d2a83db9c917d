"""Spans and counts recorded around the public functions of each fedtrace layer.

A hook replaces a function under the name its caller looks it up by:
the round loop calls `fedtrace.fedavg.local_update`, which is a binding
of its own, apart from `fedtrace.model.local_update`. Each call of a
hooked function records one span (name, start, end, parent) in memory;
`write_spans` writes them out when the run ends. Calls made by the
round loop's worker threads start with an empty stack, so their parent
is the span open on the main thread (the round that started them).

A span's self time is its duration minus the part of its interval that
its child spans cover, counting overlapping children once.

A hook whose target no longer exists is recorded as missing, and every
metric that reads it is reported as missing with the reason, not as 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def matrix_bytes(x) -> int:
    """Bytes held by a dense array or a scipy.sparse matrix."""
    if hasattr(x, "indptr"):
        return int(x.data.nbytes + x.indices.nbytes + x.indptr.nbytes)
    return int(x.nbytes)


# Captures read what the metrics need from a call's arguments and result;
# each returns the result unchanged (or, for a lazy stream, wrapped).

def _capture_corpus_tuple(rec, name, args, result):
    corpus = result[0]
    rec.values[name + ":scripts"].append(corpus.n_scripts)
    rec.values[name + ":bytes"].append(matrix_bytes(corpus.X))
    return result


def _capture_corpus(rec, name, args, result):
    rec.values[name + ":bytes"].append(matrix_bytes(result.X))
    return result


def _capture_fit(rec, name, args, result):
    info = result[1]
    rec.values[name + ":iterations"].append(int(info["iterations"]))
    rec.values[name + ":fallbacks"].append(int(info["fallback_steps"]))
    return result


def _capture_sweep(rec, name, args, result):
    rec.values[name + ":runs"].append(len(result.runs))
    return result


def _capture_stream(rec, name, args, result):
    stream, *rest = result
    return (rec.traced_iterator(name + ":next", stream, name + ":scripts"), *rest)


# (module, attribute path, capture). The span name is the path without
# the "fedtrace." prefix.
TRACE_HOOKS = (
    ("fedtrace.experiment", "generate_corpus", _capture_corpus_tuple),
    ("fedtrace.experiment", "generate_stream", _capture_stream),
    ("fedtrace.synth", "fill_feature_row", None),
    ("fedtrace.features", "fill_feature_row", None),
    ("fedtrace.heuristics", "label", None),
    ("fedtrace.experiment", "label", None),
    ("fedtrace.experiment", "parse_trace_file", None),
    ("fedtrace.traces", "parse_trace_file", None),
    ("fedtrace.partition", "ScriptCorpus.from_scripts", _capture_corpus),
    ("fedtrace.experiment", "build_partition", None),
    ("fedtrace.experiment", "participants_from_manifest", None),
    ("fedtrace.experiment", "participant_moments", None),
    ("fedtrace.sweeps", "participant_moments", None),
    ("fedtrace.fednorm", "participant_moments", None),
    ("fedtrace.experiment", "dp_fed_norm", None),
    ("fedtrace.experiment", "normalize_matrix", None),
    ("fedtrace.fednorm", "normalize_matrix", None),
    ("fedtrace.model", "logistic_loss_and_grad", None),
    ("fedtrace.model", "fit_logistic", _capture_fit),
    ("fedtrace.fedavg", "local_update", None),
    ("fedtrace.model", "local_update", None),
    ("fedtrace.fedavg", "run_round", None),
    ("fedtrace.experiment", "calibrate_noise", None),
    ("fedtrace.privacy", "plan_epsilon", None),
    ("fedtrace.experiment", "average_precision", None),
    ("fedtrace.metrics", "average_precision", None),
    ("fedtrace.cli", "stage_generate", None),
    ("fedtrace.cli", "stage_partition", None),
    ("fedtrace.cli", "stage_train", None),
    ("fedtrace.cli", "stage_evaluate", None),
    ("fedtrace.cli", "stage_account", None),
    ("fedtrace.experiment", "load_corpus", None),
    ("fedtrace.cli", "run_sweep", _capture_sweep),
    ("fedtrace.sweeps", "prepare_data", None),
)

ALONE_PARTICIPANTS = 100


def _capture_round(rec, name, args, result):
    """Keep the first round of the first training: its global model and participants.

    ALONE_PARTICIPANTS participants, spread evenly over the ids. They are
    views over that training's matrix, which stays alive until the
    workload takes the capture after its round.
    """
    key = name + ":first_round"
    if key in rec.values:
        return result
    theta_global, participants, cfg = args[:3]
    ordered = sorted(participants, key=lambda p: p.participant_id)
    picked = ordered[::max(1, len(ordered) // ALONE_PARTICIPANTS)][:ALONE_PARTICIPANTS]
    rec.values[key] = [(theta_global.copy(), picked, cfg)]
    return result


# Timer for solve_ms on staged-cli: the first training's first round,
# some of whose solves are re-run alone after the round.
ROUND_TIMER = ("fedtrace.fedavg", "run_round", _capture_round)


def span_name(module: str, path: str) -> str:
    return f"{module.removeprefix('fedtrace.')}.{path}"


class Recorder:
    """Installs hooks, keeps spans and captured values in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[str, list] = defaultdict(list)
        self.missing: dict[str, str] = {}
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, 0.0, 0.0, top.id if top else None,
                    threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def traced_iterator(self, name, iterable, count_key):
        """Yield from iterable with one span per item produced."""
        it = iter(iterable)
        done = object()
        while True:
            item = self.call(name, next, (it, done), {})
            if item is done:
                return
            self.values[count_key].append(1)
            yield item

    # ----------------------------------------------------------- hooks

    def install(self, hooks) -> None:
        for module_name, path, capture in hooks:
            name = span_name(module_name, path)
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"hook target {module_name}.{path} not found ({exc})"
                continue
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__, capture))
            elif callable(raw):
                wrapper = self._wrap(name, raw, capture)
            else:
                self.missing[name] = f"hook target {module_name}.{path} is not callable"
                continue
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, raw))

    def _wrap(self, name, fn, capture):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            return capture(self, name, args, result) if capture else result
        return wrapper

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------ output

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "thread": s.thread}) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Summary:
    """Per-name counts, totals, self times and captured values of one run."""

    def __init__(self, recorder: Recorder):
        self.missing = recorder.missing
        self.values = recorder.values
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in recorder.spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        self.self_time = {
            s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
            for s in recorder.spans}

    def _spans(self, names):
        return [s for n in names for s in self.by_name.get(n, ())]

    def count(self, *names) -> int:
        return len(self._spans(names))

    def total(self, *names) -> float:
        return float(sum(s.end - s.start for s in self._spans(names)))

    def self_total(self, *names) -> float:
        return float(sum(self.self_time[s.id] for s in self._spans(names)))

    def median(self, *names) -> float | None:
        durations = [s.end - s.start for s in self._spans(names)]
        return statistics.median(durations) if durations else None

    def median_self(self, *names) -> float | None:
        values = [self.self_time[s.id] for s in self._spans(names)]
        return statistics.median(values) if values else None

    def captured(self, key: str) -> list:
        return self.values.get(key, [])


def _per(factor):
    return lambda v: None if v is None else v * factor


# name, unit, hooks read, value(summary, facts); facts carries what the
# workload measured itself (bytes of files it wrote).
def _layer_metrics():
    gen = ("experiment.generate_corpus", "experiment.generate_stream")
    fill = ("synth.fill_feature_row", "features.fill_feature_row")
    labels = ("heuristics.label", "experiment.label")
    parse = ("experiment.parse_trace_file", "traces.parse_trace_file")
    build = ("experiment.build_partition", "experiment.participants_from_manifest",
             "partition.ScriptCorpus.from_scripts")
    moments = ("experiment.participant_moments", "sweeps.participant_moments",
               "fednorm.participant_moments")
    normalize = ("experiment.normalize_matrix", "fednorm.normalize_matrix")
    loss = ("model.logistic_loss_and_grad",)
    solves = ("fedavg.local_update", "model.local_update")
    fit = ("model.fit_logistic",)
    rounds = ("fedavg.run_round",)
    ap = ("experiment.average_precision", "metrics.average_precision")
    load = ("experiment.load_corpus",)

    def iterations(s):
        return sum(s.captured("model.fit_logistic:iterations"))

    def evals_per_iteration(s):
        it = iterations(s)
        return s.count(*loss) / it if it else None

    def stage(name):
        hook = f"cli.stage_{name}"
        return (f"experiment.{name}_s", "s", (hook,), lambda s, f: s.total(hook))

    return (
        ("synth.scripts", "count", gen,
         lambda s, f: sum(s.captured("experiment.generate_corpus:scripts"))
         + sum(s.captured("experiment.generate_stream:scripts"))),
        ("synth.self_s", "s", gen,
         lambda s, f: s.self_total(*gen, "experiment.generate_stream:next")),
        ("heuristics.labels", "count", labels, lambda s, f: s.count(*labels)),
        ("heuristics.label_s", "s", labels, lambda s, f: s.total(*labels)),
        ("traces.mb", "MB", (), lambda s, f: f["traces_bytes"] / 1e6),
        ("traces.write_s", "s", ("cli.stage_generate",),
         lambda s, f: s.self_total("cli.stage_generate")),
        ("traces.parse_s", "s", parse, lambda s, f: s.total(*parse)),
        ("features.rows", "count", fill, lambda s, f: s.count(*fill)),
        ("features.fill_s", "s", fill, lambda s, f: s.total(*fill)),
        ("features.fill_us", "us", fill, lambda s, f: _per(1e6)(s.median(*fill))),
        ("partition.corpus_mb", "MB", ("experiment.generate_corpus",
                                       "partition.ScriptCorpus.from_scripts"),
         lambda s, f: max(s.captured("experiment.generate_corpus:bytes")
                          + s.captured("partition.ScriptCorpus.from_scripts:bytes"),
                          default=0) / 1e6),
        ("partition.build_s", "s", build, lambda s, f: s.self_total(*build)),
        ("fednorm.moments_s", "s", moments, lambda s, f: s.total(*moments)),
        ("fednorm.query_s", "s", ("experiment.dp_fed_norm",),
         lambda s, f: s.self_total("experiment.dp_fed_norm")),
        ("fednorm.normalize_s", "s", normalize, lambda s, f: s.total(*normalize)),
        ("model.loss_grad_calls", "count", loss, lambda s, f: s.count(*loss)),
        ("model.loss_grad_s", "s", loss, lambda s, f: s.total(*loss)),
        ("model.loss_grad_us", "us", loss, lambda s, f: _per(1e6)(s.median(*loss))),
        ("model.local_solves", "count", solves, lambda s, f: s.count(*solves)),
        ("model.solve_s", "s", solves, lambda s, f: s.total(*solves)),
        ("model.iterations", "count", fit, lambda s, f: iterations(s)),
        ("model.evals_per_iteration", "evals/iter", loss + fit,
         lambda s, f: evals_per_iteration(s)),
        ("model.fallback_steps", "count", fit,
         lambda s, f: sum(s.captured("model.fit_logistic:fallbacks"))),
        ("fedavg.rounds", "count", rounds, lambda s, f: s.count(*rounds)),
        ("fedavg.round_ms", "ms", rounds, lambda s, f: _per(1e3)(s.median(*rounds))),
        ("fedavg.round_self_ms", "ms", rounds,
         lambda s, f: _per(1e3)(s.median_self(*rounds))),
        ("privacy.calibrate_s", "s", ("experiment.calibrate_noise",),
         lambda s, f: s.total("experiment.calibrate_noise")),
        ("privacy.plan_evals", "count", ("privacy.plan_epsilon",),
         lambda s, f: s.count("privacy.plan_epsilon")),
        ("metrics.ap_s", "s", ap, lambda s, f: s.total(*ap)),
        stage("generate"),
        stage("partition"),
        stage("train"),
        stage("evaluate"),
        stage("account"),
        ("experiment.load_corpus_calls", "count", load, lambda s, f: s.count(*load)),
        ("experiment.load_corpus_s", "s", load, lambda s, f: s.total(*load)),
        ("experiment.artifact_mb", "MB", (), lambda s, f: f["artifact_bytes"] / 1e6),
        ("sweeps.runs", "count", ("cli.run_sweep",),
         lambda s, f: sum(s.captured("cli.run_sweep:runs"))),
        ("sweeps.prepare_calls", "count", ("sweeps.prepare_data",),
         lambda s, f: s.count("sweeps.prepare_data")),
        ("sweeps.moment_calls", "count", ("sweeps.participant_moments",),
         lambda s, f: s.count("sweeps.participant_moments")),
    )


LAYER_METRICS = _layer_metrics()
# Reported by the harness itself rather than computed from spans.
TRACE_METRICS = (("trace.spans", "count"), ("trace.overhead_pct", "%"))


def layer_metrics(summary: Summary, facts: dict) -> dict[str, dict]:
    """Every per-layer metric, or a null value with the reason it is missing."""
    out = {}
    for name, unit, hooks, compute in LAYER_METRICS:
        gone = [summary.missing[h] for h in hooks if h in summary.missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
            continue
        value = compute(summary, facts)
        if value is None:
            out[name] = {"value": None, "unit": unit,
                         "missing": f"no calls to {', '.join(hooks)} in this run"}
        else:
            out[name] = {"value": value, "unit": unit}
    return out
