"""Output checks of the benchmark workloads.

Every check compares the program's reports and artefacts with a
computation made here, or with a property the method must have; none
compares with a stored copy of earlier output.  The only program code used
is the fold and holdout splitters, which fix *which* samples each fold
holds; the classifier that is checked on those folds is solved here.

Each ``check_*`` function returns a list of error strings, empty when the
outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GAMMAS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
INNER_K = 4
EXPECTED_ARMS = ("qcnn+qrdr", "qcnn", "mlp+dr", "mlp")


# ---------------------------------------------------------------------------
# shared helpers


def digests(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def load_report(directory: Path) -> dict:
    [path] = sorted(directory.glob("report_*.json"))
    return json.loads(path.read_text())


def _artifacts_exist(directory: Path, report: dict) -> list:
    return [f"{directory.name}: artefact {name} missing"
            for name in report["artifacts"].values()
            if not (directory / name).is_file()]


def read_sonar_csv(path: Path):
    """The sonar matrix and +/-1 labels (mine = +1), parsed here."""
    rows, labels = [], []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            fields = line.strip().split(",")
            rows.append([float(v) for v in fields[:-1]])
            labels.append(1 if fields[-1] == "M" else -1)
    return np.array(rows), np.array(labels)


def top_components(X: np.ndarray, rank: int) -> np.ndarray:
    """Top right singular vectors of X, that is the top eigenvectors of
    X^T X, as columns (signs arbitrary)."""
    return np.linalg.svd(X, full_matrices=False)[2][:rank].T


def variance_fraction(X: np.ndarray, rank: int) -> float:
    s2 = np.linalg.svd(X, compute_uv=False) ** 2
    return float(s2[:rank].sum() / s2.sum())


def _fit_ridge(X, y, gamma):
    """Linear LS-SVM in primal form: ridge regression with an unpenalised
    bias, min 1/2 |w|^2 + gamma/2 sum_i (y_i - w.x_i - b)^2.  It has the
    same decision function as the dual bordered-kernel system."""
    xm, ym = X.mean(axis=0), y.mean()
    Xc = X - xm
    w = np.linalg.solve(Xc.T @ Xc + np.eye(X.shape[1]) / gamma,
                        Xc.T @ (y - ym))
    return w, ym - xm @ w


def _accuracy(model, X, y) -> float:
    w, b = model
    return float(np.mean(np.where(X @ w + b >= 0.0, 1, -1) == y))


def _select_gamma(X, y, folds, gammas) -> float:
    scores = [np.mean([_accuracy(_fit_ridge(X[tr], y[tr], g), X[te], y[te])
                       for tr, te in folds]) for g in gammas]
    return float(gammas[int(np.argmax(scores))])


def _check_partition(folds, n: int, what: str) -> list:
    tests = np.sort(np.concatenate([te for _, te in folds]))
    if not np.array_equal(tests, np.arange(n)):
        return [f"{what}: folds do not partition {n} samples"]
    return []


# ---------------------------------------------------------------------------
# sonar: reduce, sweep-c at four ranks, qsvm, r_sweep


def check_sonar(out: Path, X: np.ndarray, y: np.ndarray, seed: int,
                kfold_split, holdout_split) -> list:
    errors = []
    reports = {}
    for d in sorted(p for p in out.iterdir() if p.is_dir() and p.name != "r_sweep"):
        reports[d.name] = load_report(d)
        errors += _artifacts_exist(d, reports[d.name])

    # reduce: success probability within epsilon + 0.01 of the variance
    # fraction of the top 16 components (criterion 07)
    red = reports["reduce"]["metrics"]
    frac = variance_fraction(X, 16)
    gap = abs(red["success_probability"] - frac)
    if not gap <= red["epsilon"] + 0.01:
        errors.append(f"reduce: |p - variance fraction| = {gap:.4g} exceeds "
                      f"epsilon + 0.01 = {red['epsilon'] + 0.01:.4g}")

    # sweep-c: epsilon ~ c^2, and the R = 16 sweep agrees with reduce at
    # the same (R, c)
    for r in (4, 8, 16, 32):
        d = out / f"sweep_r{r}"
        with open(d / f"sweep_c_r{r}.csv", newline="") as fh:
            rows = [(float(row["c"]), float(row["epsilon"]))
                    for row in csv.DictReader(fh)]
        c, eps = np.array(rows).T
        if len(rows) < 3 or np.any(eps <= 0):
            errors.append(f"sweep R={r}: need >= 3 positive epsilons, got {eps}")
            continue
        slope = np.polyfit(np.log(c), np.log(eps), 1)[0]
        if not 1.8 <= slope <= 2.2:
            errors.append(f"sweep R={r}: slope of log eps vs log c is "
                          f"{slope:.3f}, outside [1.8, 2.2]")
        if r == 16:
            at = dict(rows).get(0.004)
            if at is None or not math.isclose(at, red["epsilon"], rel_tol=1e-6):
                errors.append(f"sweep R=16: epsilon at c=0.004 is {at}, "
                              f"reduce reported {red['epsilon']}")

    # qsvm: the primal solver, with gamma chosen by the same inner CV on
    # the same folds, reproduces every chosen gamma and fold accuracy
    q = reports["qsvm"]
    if tuple(q["config"]["gammas"]) != GAMMAS:
        errors.append(f"qsvm: gamma grid {q['config']['gammas']}")
    k = q["config"]["folds"]
    features = {"raw": X, "reduced": X @ top_components(X, q["config"]["r"])}
    folds = kfold_split(X.shape[0], k, seed)
    errors += _check_partition(folds, X.shape[0], "qsvm outer")
    for arm, F in features.items():
        m = q["metrics"][arm]
        for i, (tr, te) in enumerate(folds):
            inner = kfold_split(len(tr), INNER_K, seed, stream=100 + i)
            gamma = _select_gamma(F[tr], y[tr], inner, GAMMAS)
            acc = _accuracy(_fit_ridge(F[tr], y[tr], gamma), F[te], y[te])
            if gamma != m["chosen_gammas"][i]:
                errors.append(f"qsvm {arm} fold {i}: gamma {m['chosen_gammas'][i]}"
                              f", recomputed {gamma}")
            if not math.isclose(acc, m["fold_accuracies"][i], abs_tol=1e-12):
                errors.append(f"qsvm {arm} fold {i}: accuracy "
                              f"{m['fold_accuracies'][i]}, recomputed {acc}")
        if not math.isclose(m["mean_accuracy"], np.mean(m["fold_accuracies"]),
                            abs_tol=1e-12):
            errors.append(f"qsvm {arm}: mean accuracy is not the fold mean")

    # r_sweep: every (rank, repetition) accuracy reproduced the same way
    rs = json.loads((out / "r_sweep" / "r_sweep.json").read_text())
    ranks = rs["ranks"]
    Z = X @ top_components(X, max(ranks))
    acc = np.array(rs["rep_accuracies"])
    if acc.shape != (len(ranks), rs["reps"]):
        return errors + [f"r_sweep: accuracy table of shape {acc.shape}"]
    for rep in range(rs["reps"]):
        tr, te = holdout_split(X.shape[0], rs["test_count"], seed, rep)
        inner = kfold_split(len(tr), INNER_K, seed, stream=200 + rep)
        for ri, rank in enumerate(ranks):
            F = Z[:, :rank]
            gamma = _select_gamma(F[tr], y[tr], inner, GAMMAS)
            mine = _accuracy(_fit_ridge(F[tr], y[tr], gamma), F[te], y[te])
            if not math.isclose(mine, acc[ri, rep], abs_tol=1e-12):
                errors.append(f"r_sweep R={rank} rep {rep}: accuracy "
                              f"{acc[ri, rep]}, recomputed {mine}")
    if not np.allclose(rs["mean_accuracies"], acc.mean(axis=1), atol=1e-12):
        errors.append("r_sweep: mean accuracies are not the repetition means")
    return errors


# ---------------------------------------------------------------------------
# tfim-gen: 200 labelled ground states of the 8-site chain


def read_phase_jsonl(path: Path):
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    return header, records


def pauli_sums(n: int):
    """(sum_i Z_i Z_{i+1}, sum_i X_i) on an open chain, site 0 the most
    significant bit, built from Kronecker products of Pauli matrices."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])

    def chain(ops):
        out = np.ones((1, 1))
        for op in ops:
            out = np.kron(out, op)
        return out

    eye = np.eye(2)
    zz = sum(chain([z if j in (i, i + 1) else eye for j in range(n)])
             for i in range(n - 1))
    xs = sum(chain([x if j == i else eye for j in range(n)]) for i in range(n))
    return zz, xs


def check_tfim(out: Path, count: int = 200, n_sites: int = 8) -> list:
    errors = []
    d = out / "tfim_gen"
    report = load_report(d)
    errors += _artifacts_exist(d, report)
    header, records = read_phase_jsonl(d / report["artifacts"]["dataset"])
    if header.get("n_sites") != n_sites or len(records) != count:
        return errors + [f"tfim: {len(records)} records on "
                         f"{header.get('n_sites')} sites"]
    J = float(header["J"])
    zz, xs = pauli_sums(n_sites)
    worst_res = worst_gap = worst_norm = 0.0
    for i, rec in enumerate(records):
        psi = np.array(rec["amplitudes"])
        ratio = rec["h_over_j"]
        H = -J * zz + (J * ratio) * xs
        energy = psi @ H @ psi
        res = float(np.linalg.norm(H @ psi - energy * psi))
        gap = abs(energy - np.linalg.eigvalsh(H)[0])
        norm_dev = abs(float(np.linalg.norm(psi)) - 1.0)
        worst_res, worst_gap = max(worst_res, res), max(worst_gap, gap)
        worst_norm = max(worst_norm, norm_dev)
        if norm_dev > 1e-10 or res > 1e-8 or gap > 1e-9:
            errors.append(f"tfim sample {i} (h/J={ratio}): |psi|-1 = {norm_dev:.2e},"
                          f" |H psi - E psi| = {res:.2e}, E - E0 = {gap:.2e}")
        if rec["label"] != (1 if ratio > 1.0 else -1):
            errors.append(f"tfim sample {i}: label {rec['label']} at h/J={ratio}")
    labels = [rec["label"] for rec in records]
    if labels.count(1) != count // 2 or labels.count(-1) != count // 2:
        errors.append(f"tfim: classes {labels.count(1)} / {labels.count(-1)}")
    return errors


# ---------------------------------------------------------------------------
# qcnn-train: four arms, 20 epochs each


def check_qcnn(out: Path, data_path: Path, epochs: int = 20) -> list:
    errors = []
    d = out / "qcnn_train"
    report = load_report(d)
    errors += _artifacts_exist(d, report)
    if errors:
        return errors
    metrics, artifacts = report["metrics"], report["artifacts"]
    if tuple(sorted(metrics)) != tuple(sorted(EXPECTED_ARMS)):
        return [f"qcnn: arms {sorted(metrics)}"]
    _, records = read_phase_jsonl(data_path)
    feats = np.array([rec["amplitudes"] for rec in records])
    for arm in EXPECTED_ARMS:
        seeds = [key for key in metrics[arm] if key.isdigit()]
        for seed in seeds:
            tag = f"{arm.replace('+', '_')}_s{seed}"
            with open(d / artifacts[f"history_{tag}"], newline="") as fh:
                history = list(csv.DictReader(fh))
            if [int(row["epoch"]) for row in history] != list(range(epochs)):
                errors.append(f"qcnn {arm}: {len(history)} history rows")
                continue
            final = metrics[arm][seed]["final_test_acc"]
            if float(history[-1]["test_acc"]) != final:
                errors.append(f"qcnn {arm}: report accuracy {final} is not "
                              f"the last history row {history[-1]['test_acc']}")
            if not final > 0.5:
                errors.append(f"qcnn {arm} seed {seed}: final test accuracy "
                              f"{final} not above 0.5")
            json.loads((d / artifacts[f"model_{tag}"]).read_text())
        if "reduction" in metrics[arm]:
            red = metrics[arm]["reduction"]
            if not red["epsilon"] <= 1e-3:
                errors.append(f"qcnn {arm}: reduction epsilon {red['epsilon']}")
            frac = variance_fraction(feats, red["rank"])
            gap = abs(red["success_probability"] - frac)
            if not gap <= red["epsilon"] + 0.01:
                errors.append(f"qcnn {arm}: |p - variance fraction| = {gap:.4g}")
    for arm in ("qcnn+qrdr", "mlp+dr"):
        if "reduction" not in metrics[arm]:
            errors.append(f"qcnn {arm}: no reduction metrics")
    return errors
