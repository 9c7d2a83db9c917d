"""Reference computations and output checks, written apart from fedtrace.

Nothing here calls the fedtrace code it checks. Each reference follows
the documented semantics of the quantity:

- NaiveFeaturizer: one count slot per catalog API, then one 0/1 slot per
  custom predicate, each predicate evaluated on its own;
- brute_force_ap: average precision by enumerating every distinct score
  as a threshold;
- closed_form_epsilon: Gaussian RDP at sampling rate q=1,
  min over alpha of sum(count * alpha / (2 z^2)) + log(1/delta)/(alpha-1);
- logistic_loss: mean binary cross-entropy plus (lambda/2)||w||^2 in
  float64;
- recompute_summary: per-(feature set, W, epsilon) mean of a sweep's
  runs table.

Every check_* function returns a list of failure messages, empty when
the output is correct, so a run reports every problem at once and a
test can hand a check a corrupted output and see it fail.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

AP_TOL = 1e-12
EPSILON_REL_TOL = 1e-9
# A local update returns a point on the segment from the global model to
# the optimizer's iterate, so by convexity its loss cannot exceed the
# global model's. The program evaluates the loss in float32 on float32
# rows; this float64 recomputation may differ from it by float32
# rounding, about 1e-7 relative, so the check allows ten times that.
LOSS_REL_TOL = 1e-6
CLIP_REL_TOL = 1e-9
# "Far above chance": a random ranking's expected AP is the positive
# rate, so a detector must reach at least this multiple of it.
CHANCE_MULTIPLE = 10.0
NO_NOISE_MIN_AUPRC = 0.9
DEVICE_MIN_AP = 0.9


# ------------------------------------------------------------ references

class NaiveFeaturizer:
    """Feature rows computed from a catalog's documented semantics."""

    def __init__(self, catalog):
        self.n_api = len(catalog.api_count_entries)
        self.width = self.n_api + len(catalog.custom_entries)
        self.api_slot = {name: i for i, name in enumerate(catalog.api_count_entries)}
        # predicates grouped by the API they read, so a call is only tested
        # against the predicates that can match it
        self.predicates = defaultdict(list)
        for j, spec in enumerate(catalog.custom_entries):
            self.predicates[spec.api_name].append((self.n_api + j, spec))

    def row(self, trace) -> np.ndarray:
        out = np.zeros(self.width)
        for call in trace.calls:
            slot = self.api_slot.get(call.api_name)
            if slot is not None:
                out[slot] += 1.0
            for cslot, spec in self.predicates.get(call.api_name, ()):
                if predicate_holds(spec, call):
                    out[cslot] = 1.0
        return out


def predicate_holds(spec, call) -> bool:
    """One custom predicate on one call.

    The predicate reads one argument position (absent positions never
    match) or the return value. "equals" compares the recorded summary,
    with booleans never equal to numbers; "strlen" matches a string of
    exactly that length, or a summarized long string of that length.
    """
    if spec.target == "argument":
        if spec.arg_index >= len(call.args):
            return False
        value = call.args[spec.arg_index]
    else:
        value = call.return_value
    wanted = spec.match_value
    if spec.match_kind == "strlen":
        if isinstance(value, str):
            return len(value) == wanted
        # the trace format records a long string as its (length, digest)
        return hasattr(value, "digest") and value.length == wanted
    if isinstance(value, bool) or isinstance(wanted, bool):
        return type(value) is type(wanted) and value == wanted
    return value == wanted


def brute_force_ap(scores, labels) -> float:
    """AP = sum over distinct thresholds t (descending) of dRecall * precision."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    ap = 0.0
    previous_recall = 0.0
    for t in sorted(set(s.tolist()), reverse=True):
        selected = s >= t
        tp = int((selected & y).sum())
        recall = tp / n_pos
        ap += (recall - previous_recall) * (tp / int(selected.sum()))
        previous_recall = recall
    return ap


def closed_form_epsilon(entries, orders, delta: float) -> float:
    """Epsilon of a ledger whose queries all run at q=1 (plain Gaussians)."""
    alphas = np.asarray(orders, dtype=float)
    rdp = np.zeros_like(alphas)
    for _mechanism, q, z, count in entries:
        if float(q) != 1.0:
            raise ValueError(f"closed form needs q=1, ledger has q={q}")
        rdp += int(count) * alphas / (2.0 * float(z) ** 2)
    return float(np.min(rdp + math.log(1.0 / delta) / (alphas - 1.0)))


def logistic_loss(theta, X, y, l2_lambda: float) -> float:
    """Mean BCE of sigmoid(X w + b) plus (lambda/2)||w||^2, in float64."""
    theta = np.asarray(theta, dtype=np.float64)
    w, b = theta[:-1], theta[-1]
    margins = np.asarray(X, dtype=np.float64) @ w + b
    yf = np.asarray(y, dtype=np.float64)
    # softplus(m) - y*m, with softplus(m) = max(m, 0) + log1p(exp(-|m|))
    softplus = np.maximum(margins, 0.0) + np.log1p(np.exp(-np.abs(margins)))
    return float(np.mean(softplus - yf * margins) + 0.5 * l2_lambda * float(w @ w))


def read_table(path) -> list[dict]:
    """CSV written by fedtrace: '#' comment lines, a header, plain cells."""
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return rows


def recompute_summary(runs: list[dict]) -> dict[tuple, float]:
    """Mean test AUPRC per (feature set, participants, epsilon)."""
    groups: dict[tuple, list[float]] = defaultdict(list)
    for row in runs:
        key = (row["feature_set"], int(row["participants"]), float(row["epsilon"]))
        groups[key].append(float(row["auprc"]))
    return {key: sum(values) / len(values) for key, values in groups.items()}


# ----------------------------------------------------------------- checks

def check_sweep(runs: list[dict], summary: list[dict], expected_runs: int) -> list[str]:
    """A sweep: all runs present, summary = recomputed means, no-noise runs high.

    At the sweep's small size (W=20) a run at epsilon=1 may rank near
    chance, which is what that much noise should do, so only the
    no-noise runs have a floor.
    """
    failures = []
    if len(runs) != expected_runs:
        failures.append(f"sweep wrote {len(runs)} runs, expected {expected_runs}")
    means = recompute_summary(runs)
    seen = set()
    for row in summary:
        key = (row["feature_set"], int(row["participants"]), float(row["epsilon"]))
        seen.add(key)
        want = means.get(key)
        got = float(row["auprc_mean"])
        if want is None:
            failures.append(f"summary row {key} has no runs behind it")
        elif abs(got - want) > 1e-12 * max(1.0, abs(want)):
            failures.append(f"summary mean {got!r} for {key} != recomputed {want!r}")
    for key in set(means) - seen:
        failures.append(f"runs for {key} are missing from the summary")
    for row in runs:
        auprc = float(row["auprc"])
        if math.isinf(float(row["epsilon"])) and not auprc >= NO_NOISE_MIN_AUPRC:
            failures.append(f"no-noise test AUPRC {auprc:.4f} ({row['series']}) is below "
                            f"{NO_NOISE_MIN_AUPRC}")
    return failures


def check_staged(ledger: dict, report: dict, metrics: list[dict], n_features: int,
                 rounds: int, target_epsilon: float, corpus_size: int) -> list[str]:
    """staged-cli: the ledger's query count, the replayed epsilon and the split sizes."""
    failures = []
    entries = ledger["entries"]
    charged = sum(int(e[3]) for e in entries)
    if charged != 2 * n_features + rounds:
        failures.append(f"ledger charges {charged} queries, expected 2F + R = "
                        f"{2 * n_features + rounds}")
    try:
        want = closed_form_epsilon(entries, report["orders"], float(ledger["delta"]))
    except ValueError as exc:
        failures.append(str(exc))
    else:
        got = report["epsilon"]
        if isinstance(got, str) or abs(got - want) > EPSILON_REL_TOL * want:
            failures.append(f"replayed epsilon {got!r} != closed form {want!r}")
        elif not got <= target_epsilon:
            failures.append(f"replayed epsilon {got!r} exceeds the target {target_epsilon}")
    sizes = sum(int(r["n_scripts"]) for r in metrics)
    if sizes != corpus_size:
        failures.append(f"train + test n_scripts = {sizes}, corpus has {corpus_size}")
    for r in metrics:
        rate = int(r["n_positive"]) / int(r["n_scripts"])
        if not float(r["auprc"]) >= CHANCE_MULTIPLE * rate:
            failures.append(f"{r['split']} AUPRC {r['auprc']} is not far above its "
                            f"positive rate {rate:.4f}")
    return failures


def check_update(delta, clip_norm: float, loss_before: float, loss_after: float) -> list[str]:
    """on-device: one clipped local update."""
    failures = []
    norm = float(np.linalg.norm(delta))
    if not norm <= clip_norm * (1.0 + CLIP_REL_TOL):
        failures.append(f"update norm {norm!r} exceeds the clip norm {clip_norm}")
    if not loss_after <= loss_before + LOSS_REL_TOL * (1.0 + abs(loss_before)):
        failures.append(f"update raised the participant's loss from {loss_before!r} "
                        f"to {loss_after!r}")
    return failures


def check_row(row, reference) -> list[str]:
    """on-device: a scored feature row equals the naive featurizer's row."""
    row = np.asarray(row)
    if row.shape != reference.shape:
        return [f"row has shape {row.shape}, reference {reference.shape}"]
    bad = np.flatnonzero(row != reference)
    if bad.size:
        return [f"row differs from the naive featurizer in {bad.size} slots, "
                f"first slot {int(bad[0])}: {row[bad[0]]!r} != {reference[bad[0]]!r}"]
    return []


def check_ap(program_ap: float, scores, labels) -> list[str]:
    """on-device: the program's AP equals brute force and is high."""
    want = brute_force_ap(scores, labels)
    failures = []
    if abs(program_ap - want) > AP_TOL:
        failures.append(f"average_precision {program_ap!r} != brute force {want!r}")
    if not program_ap >= DEVICE_MIN_AP:
        failures.append(f"scored scripts reach AP {program_ap:.4f} < {DEVICE_MIN_AP}")
    return failures
