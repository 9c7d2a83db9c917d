"""The benchmark's two workloads.

Each workload is a batch job that one process runs from one closed-loop
caller: the next operation starts when the previous one has returned.
A round is one whole batch job; the harness repeats rounds and checks
every round's outputs against the references in checks.py.

staged-cli  generate, partition, train, evaluate, account through
            fedtrace.cli.main into a fresh run directory at 20k
            scripts, W=100, q=1, 3 rounds, 10 local iterations,
            epsilon=5; then a small `fedtrace sweep feat_norm_ablation`
            (2k scripts, W=20, 1 round, six trainings). One operation =
            one command.
on-device   what one participant pays: set-up trains a global model
            with experiment.run_pipeline (10k scripts, W=1000, 50 URLs,
            q=0.1, 3 rounds, epsilon=5) and generates 2000 fresh
            scripts with `fedtrace generate` under another seed; a
            round runs 500 participants' model.local_update one at a
            time and scores every fresh trace one at a time. One
            operation = one solve or one scored script.

The paper-sized privacy sweep (dp-sweep) was dropped: its times could
not be made steady on the reference machine (see README).

The program is driven only through fedtrace.cli.main,
experiment.run_pipeline and the per-participant calls model.local_update,
features.fill_feature_row, fednorm.normalize_matrix,
LogisticModel.decision_scores, traces.parse_trace_file and
heuristics.label. No call passes --workers or max_workers, so the round
loop runs at its default pool size.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from fedtrace import cli, experiment, features, fednorm, heuristics, metrics, model, traces
from fedtrace.experiment import ExperimentConfig
from fedtrace.synth import GeneratorConfig
from spans import ROUND_TIMER, Recorder

STAGED_SCRIPTS = 20_000
STAGED_ROUNDS = 3
STAGED_EPSILON = 5.0
STAGED_FLAGS = ("--set", f"generator.n_scripts={STAGED_SCRIPTS}",
                "--set", "n_participants=100", "--set", "q=1",
                "--set", f"rounds={STAGED_ROUNDS}", "--set", "local_iterations=10",
                "--set", f"epsilon={STAGED_EPSILON:g}")
CONFIGURED_COMMANDS = ("generate", "partition", "train")
STAGED_COMMANDS = CONFIGURED_COMMANDS + ("evaluate", "account", "sweep")
# A small sweep, so that the sweep command and the sweeps layer run too.
SWEEP_RECIPE = "feat_norm_ablation"
SWEEP_RUNS = 6  # normalization on/off x epsilon in {1, 5, inf}
SWEEP_FLAGS = ("--set", "generator.n_scripts=2000", "--set", "generator.fp_prevalence=0.02",
               "--set", "n_participants=20", "--set", "rounds=1")

DEVICE_SCRIPTS = 10_000
DEVICE_PREVALENCE = 0.02
FRESH_SCRIPTS = 2_000
FRESH_SEED_OFFSET = 100_003  # fresh scripts come from a corpus seed training never used
DEVICE_SOLVES = 500


class Workload:
    """Set-up, rounds and checks of one workload; collects what it measured."""

    name = ""
    ops_per_round = 0
    timer_hooks: tuple = ()

    def __init__(self, seed: int, work_dir: Path, log):
        self.seed = seed
        self.work_dir = work_dir
        self.log = log
        self.failed = 0
        self.failures: list[str] = []
        self.facts = {"traces_bytes": 0, "artifact_bytes": 0}
        self.timers = Recorder()

    def setup(self) -> None:
        """One set-up; the harness may repeat it and keeps the last."""

    def run_round(self, index: int) -> None:
        raise NotImplementedError

    def check_round(self, index: int) -> None:
        """Check the outputs of round `index` (outside its timed interval)."""

    def unit_metrics(self) -> dict[str, float]:
        """solve_ms and score_us from what the rounds measured."""
        raise NotImplementedError

    def round_dir(self, index: int) -> Path:
        path = self.work_dir / f"round{index}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def fail(self, message: str) -> None:
        self.failures.append(f"{self.name}: {message}")

    def operation_failed(self, what: str) -> None:
        self.failed += 1
        self.log.write(f"operation failed: {what}\n{traceback.format_exc()}\n")


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _median(values, scale: float) -> float:
    if not values:
        raise RuntimeError("no samples")
    return statistics.median(values) * scale


# Passes over the kept participants repeat until this much time has gone
# by: a burst of a few hundred milliseconds lands in whatever stretch of
# machine speed it happens to hit.
ALONE_SECONDS = 1.0


def solve_alone(timers: Recorder) -> list[float]:
    """Wall times of the first training's first-round solves, re-run alone.

    The round timer kept the global model the round's first training
    started from and a fixed subset of its participants. Each runs
    model.local_update from that model, one call at a time, outside the
    round loop and its pool, in whole passes over the subset until
    ALONE_SECONDS have gone by.
    """
    times = []
    for theta, participants, cfg in timers.values.pop("fedavg.run_round:first_round", []):
        local = cfg.local
        data = [(p.features, p.labels) for p in participants]
        begin = time.perf_counter()
        while not times or time.perf_counter() - begin < ALONE_SECONDS:
            for x, y in data:
                start = time.perf_counter()
                model.local_update(theta, x, y, local)
                times.append(time.perf_counter() - start)
    return times


# -------------------------------------------------------------- staged-cli

class StagedCli(Workload):
    name = "staged-cli"
    ops_per_round = len(STAGED_COMMANDS)
    timer_hooks = (ROUND_TIMER,)

    def __init__(self, *args):
        super().__init__(*args)
        self.alone_s: list[float] = []  # solves re-run outside the round loop
        self.score_s: list[float] = []

    def run_round(self, index: int) -> None:
        run = self._run = self.round_dir(index)
        self._ok = True
        for command in STAGED_COMMANDS:
            argv = [command]
            if command in CONFIGURED_COMMANDS:
                argv += [*STAGED_FLAGS, "--seed", str(self.seed), "--out", str(run)]
            elif command == "sweep":
                argv += [SWEEP_RECIPE, *SWEEP_FLAGS, "--seeds", str(self.seed),
                         "--out", str(run / "sweep")]
            else:
                argv += ["--out", str(run)]
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
            wall = time.perf_counter() - start
            if code != 0:
                self._ok = False
                self.operation_failed(f"fedtrace {' '.join(argv)} -> {code}")
            elif command == "evaluate":
                self._evaluate_s = wall

    def check_round(self, index: int) -> None:
        run = self._run
        self.alone_s += solve_alone(self.timers)
        if self._ok:
            catalog = read_json(run / "catalog.json")
            checkpoint = read_json(run / "checkpoint.json")
            n_features = len(catalog["sets"][checkpoint["feature_set"]])
            scored = checks.read_table(run / "metrics.csv")
            for failure in checks.check_staged(
                    read_json(run / "ledger.json"), read_json(run / "privacy_report.json"),
                    scored, n_features, STAGED_ROUNDS, STAGED_EPSILON, STAGED_SCRIPTS):
                self.fail(failure)
            self.score_s.append(self._evaluate_s / sum(int(r["n_scripts"]) for r in scored))
            runs = checks.read_table(run / "sweep" / f"{SWEEP_RECIPE}_runs.csv")
            summary = checks.read_table(run / "sweep" / f"{SWEEP_RECIPE}_summary.csv")
            for failure in checks.check_sweep(runs, summary, SWEEP_RUNS):
                self.fail(failure)
            self.facts["traces_bytes"] = (run / "traces.jsonl").stat().st_size
        self.facts["artifact_bytes"] = _dir_bytes(run)
        shutil.rmtree(run, ignore_errors=True)

    def unit_metrics(self) -> dict[str, float]:
        return {"solve_ms": _median(self.alone_s, 1e3),
                "score_us": _median(self.score_s, 1e6)}


# --------------------------------------------------------------- on-device

def device_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        generator=GeneratorConfig(n_scripts=DEVICE_SCRIPTS, fp_prevalence=DEVICE_PREVALENCE),
        n_participants=1000, urls_per_participant=50, q=0.1, rounds=3,
        epsilon=5.0, seed=seed)


class OnDevice(Workload):
    name = "on-device"
    ops_per_round = DEVICE_SOLVES + FRESH_SCRIPTS

    def __init__(self, *args):
        super().__init__(*args)
        self.solve_s: list[float] = []
        self.score_s: list[float] = []

    def setup(self) -> None:
        config = device_config(self.seed)
        result = experiment.run_pipeline(config)
        outcome = result.outcome
        fresh = self.work_dir / "fresh"
        shutil.rmtree(fresh, ignore_errors=True)
        code = cli.main(["generate", "--set", f"generator.n_scripts={FRESH_SCRIPTS}",
                         "--set", f"generator.fp_prevalence={DEVICE_PREVALENCE}",
                         "--seed", str(self.seed + FRESH_SEED_OFFSET), "--out", str(fresh)])
        if code != 0:
            raise RuntimeError(f"fedtrace generate for the fresh scripts exited {code}")
        self.scripts = traces.parse_trace_file(fresh / "traces.jsonl")
        self.labels = np.array([heuristics.label(t).is_fingerprinting() for t in self.scripts])
        self.facts["traces_bytes"] = (fresh / "traces.jsonl").stat().st_size
        self.facts["artifact_bytes"] = _dir_bytes(fresh)
        shutil.rmtree(fresh, ignore_errors=True)

        self.config = config
        self.catalog = result.prepared.corpus.catalog
        self.global_model = outcome.model
        self.theta = outcome.model.theta
        self.mask = outcome.mask
        self.stats = outcome.norm_stats
        self.matrix = outcome.matrix  # every corpus row, masked and normalized
        self.y = result.prepared.corpus.labels
        self.participant_rows = [p.rows for p in result.participants[:DEVICE_SOLVES]]
        self.local = model.LocalUpdateConfig(epochs=config.local_epochs,
                                             clip_norm=config.clip_norm,
                                             optimizer=config.optimizer)

    def run_round(self, index: int) -> None:
        first = index == 0
        if first:
            self.deltas, self.rows, self.scores = [], [], []
        scores = []
        for k, rows in enumerate(self.participant_rows):
            x, y = self.matrix[rows], self.y[rows]
            start = time.perf_counter()
            try:
                delta = model.local_update(self.theta, x, y, self.local)
            except Exception:
                self.operation_failed(f"local_update participant {k}")
                delta = None
            self.solve_s.append(time.perf_counter() - start)
            if first:
                self.deltas.append(delta)
            elif delta is not None and self.deltas[k] is not None \
                    and not np.array_equal(delta, self.deltas[k]):
                self.fail(f"participant {k}'s update changed between rounds")
        floor, mode = self.config.variance_floor, self.config.norm_mode
        for i, trace in enumerate(self.scripts):
            start = time.perf_counter()
            try:
                row = np.zeros(self.catalog.slot_count)
                features.fill_feature_row(trace, self.catalog, row)
                x = fednorm.normalize_matrix(row[self.mask][None, :], self.stats, mode,
                                             variance_floor=floor)
                score = float(self.global_model.decision_scores(x)[0])
            except Exception:
                self.operation_failed(f"scoring script {i}")
                row, score = None, None
            self.score_s.append(time.perf_counter() - start)
            scores.append(score)
            if first:
                self.rows.append(row)
        if first:
            self.scores = scores
        elif scores != self.scores:
            self.fail("scores changed between rounds")

    def check_round(self, index: int) -> None:
        if index != 0:
            return
        l2 = self.config.optimizer.l2_lambda
        for k, (rows, delta) in enumerate(zip(self.participant_rows, self.deltas)):
            if delta is None:
                continue
            x, y = self.matrix[rows], self.y[rows]
            before = checks.logistic_loss(self.theta, x, y, l2)
            after = checks.logistic_loss(self.theta + delta, x, y, l2)
            for failure in checks.check_update(delta, self.local.clip_norm, before, after):
                self.fail(f"participant {k}: {failure}")
        naive = checks.NaiveFeaturizer(self.catalog)
        for i, (trace, row) in enumerate(zip(self.scripts, self.rows)):
            if row is not None:
                for failure in checks.check_row(row, naive.row(trace)):
                    self.fail(f"script {i}: {failure}")
        if all(s is not None for s in self.scores):
            ap = metrics.average_precision(self.scores, self.labels)
            for failure in checks.check_ap(ap, self.scores, self.labels):
                self.fail(failure)

    def unit_metrics(self) -> dict[str, float]:
        return {"solve_ms": _median(self.solve_s, 1e3),
                "score_us": _median(self.score_s, 1e6)}


WORKLOADS = {w.name: w for w in (StagedCli, OnDevice)}
