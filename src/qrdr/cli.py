"""Experiment runner: one binary, six subcommands.

    reduce      run the resonant reduction once and report fidelity metrics
    sweep-c     trace infidelity against the coupling and fit the error law
    qsvm        LS-SVM cross-validation on raw and rank-reduced features
    tfim-gen    generate the Ising phase dataset (JSON lines)
    qcnn-train  train the quantum/classical classifier arms
    verify      run the cross-module invariant battery

Every setting is a flag; a flag left out takes its built-in default.
Reports are JSON with sorted keys plus CSV side files, all written by the
two writers below, and contain no volatile fields: rerunning any experiment
with the same flags reproduces the report byte for byte (wall-clock timing
goes to stderr only).  Exit codes: 0 success, 1 configuration/validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from . import qcnn, resonance, svm, tfim
from .engine import build_hamiltonian, reduce_rows, run_qrdr, sample_rows
from .pca import fit_pca


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; we reserve 2 for failed runs
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, rule: str):
    """Flag type: ``convert(text)``, accepted only where ``ok`` holds.

    A rejected value reads ``argument --<flag>: '<text>': <rule>``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: {rule}")
        return value
    return parse


def _comma_list(convert):
    """Flag type for a non-empty comma list of distinct converted items."""
    def parse(text: str):
        values = [convert(x.strip()) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r}: empty list")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"{text!r}: an item is listed twice")
        return values
    return parse


def _at_least(low: int):
    return _checked(int, lambda n: n >= low, f"must be >= {low}")


def _out_dir(path: Path) -> bool:
    # the nearest existing path at or above --out is where it gets created
    return next(p for p in (path, *path.parents) if p.exists()).is_dir()


_finite = _checked(float, math.isfinite, "must be finite")
_positive = _checked(float, lambda x: math.isfinite(x) and x > 0,
                     "must be finite and > 0")
_file = _checked(str, lambda p: Path(p).is_file(), "file not found")
_pair = _checked(_comma_list(_finite), lambda v: len(v) == 2,
                 "need two values lo,hi")
_ARMS = ("qcnn+qrdr", "qcnn", "mlp+dr", "mlp")


def build_parser() -> _Parser:
    """The one place where every setting is declared, defaulted and typed.

    Each flag's type holds its own rule, which string defaults pass
    through too.  Flags cannot be abbreviated, so a prefix of a flag is
    rejected rather than read as the flag."""
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_at_least(0), default=7,
                        help="base random seed (default 7)")
    seeded.add_argument("--threads", type=int, choices=(1,), default=1,
                        help="jobs run one at a time; the flag stays only "
                             "until the benchmark stops passing it")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", type=_checked(
        Path, _out_dir, "must be a directory or a new path under one"),
        help="output directory for reports (default .)")
    sonar = argparse.ArgumentParser(add_help=False)
    sonar.add_argument("--dataset", type=_file,
                       default=str(dataset_mod.sonar_path()))
    sonar.add_argument("--r", type=_at_least(1), default=16,
                       help="target rank R")

    parser = _Parser(prog="qrdr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *parents):
        return sub.add_parser(name, parents=[*parents, out], help=summary,
                              allow_abbrev=False)

    p = command("reduce", "run the resonant reduction once", seeded, sonar)
    p.add_argument("--c", type=_finite, default=0.004, help="resonant coupling")

    p = command("sweep-c", "infidelity across a coupling grid", seeded,
                sonar)
    p.add_argument("--c-grid", dest="c_grid", type=_comma_list(_finite),
                   default=list(resonance.DEFAULT_C_GRID))

    p = command("qsvm", "LS-SVM cross-validation", seeded, sonar)
    p.add_argument("--folds", type=_at_least(2), default=8)
    p.add_argument("--arm", choices=("raw", "reduced", "both"), default="both")
    p.add_argument("--gammas", type=_comma_list(_positive),
                   default=list(svm.GAMMA_GRID))

    p = command("tfim-gen", "generate the Ising phase dataset", seeded)
    p.add_argument("--n-sites", dest="n_sites", type=_at_least(2), default=8)
    p.add_argument("--count", type=_checked(
        int, lambda n: n > 0 and n % 2 == 0,
        "must be positive and even for balanced classes"), default=200)
    p.add_argument("--ratio-range", dest="ratio_range", type=_pair,
                   default=[0.2, 1.8])
    p.add_argument("--exclusion", type=_pair, default=[0.95, 1.05])

    p = command("qcnn-train", "train classifier arms on the phase dataset",
                seeded)
    p.add_argument("--data", type=_file, required=True,
                   help="phase dataset JSONL written by tfim-gen")
    p.add_argument("--r", default=16, type=_checked(
        int, lambda r: r >= 4 and r.bit_count() == 1 and r.bit_length() % 2,
        "does not map to an even reduced register (a power of 4 from 4 up)"))
    p.add_argument("--arms", default=",".join(_ARMS), type=_comma_list(
        _checked(str, _ARMS.__contains__, "not one of " + ",".join(_ARMS))),
        help="comma list from " + ",".join(_ARMS))
    p.add_argument("--seeds", type=_comma_list(_at_least(0)), default=None,
                   help="comma list of training seeds (default: the base seed)")
    p.add_argument("--epochs", type=_at_least(1), default=20)
    p.add_argument("--batch-size", dest="batch_size", type=_at_least(1),
                   default=20)
    p.add_argument("--lr", type=_positive, default=0.01)

    command("verify", "run the invariant battery")
    return parser


def parse_config(argv) -> argparse.Namespace:
    """Parse the flags of one run.

    Flag types check single values; left here: the tfim-gen window order
    and the --seeds default."""
    ns = build_parser().parse_args(argv)
    if ns.command == "tfim-gen":
        try:
            tfim.check_window(ns.ratio_range, ns.exclusion)
        except ValueError as exc:
            raise ConfigError(f"ratio_range, exclusion: {exc}") from None
    if ns.command == "qcnn-train":
        if ns.seeds is None:
            ns.seeds = [ns.seed]
        del ns.seed   # it only set the default of --seeds; the echo skips it
    return ns


# ---------------------------------------------------------------------------
# the two writers of every run output; each returns the file name


def _write(path: Path, text: str) -> str:
    # the text exists before the directory or file does, so a value that
    # cannot be serialised leaves neither behind
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="ascii", newline="")
    return path.name


def _write_json(path: Path, obj, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys; NaN or infinity raises."""
    return _write(path, json.dumps(obj, sort_keys=True, indent=indent,
                                   allow_nan=False) + "\n")


def _write_csv(path: Path, fields, rows) -> str:
    """Dict rows under a ``fields`` header, every value through ``repr``."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows({k: repr(v) for k, v in row.items()} for row in rows)
    return _write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# experiment runners: parsed flags in, (metrics, artifacts) out


def _load(ns: argparse.Namespace, key: str, loader):
    # a malformed or non-finite input file is an input error (exit 1)
    try:
        return loader(getattr(ns, key))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _sonar(ns: argparse.Namespace, reduces: bool = True):
    """The --dataset matrix, checked against --r when the run reduces it."""
    ds = _load(ns, "dataset", dataset_mod.load_sonar)
    if reduces and ns.r > ds.n_features:
        raise ConfigError(f"r: rank {ns.r} exceeds {ds.n_features} features")
    return ds


def _run_reduce(ns: argparse.Namespace):
    ds = _sonar(ns)
    out = run_qrdr(build_hamiltonian(fit_pca(ds.features), ns.r, ns.c))
    return out.to_metrics(), {}


def _run_sweep(ns: argparse.Namespace):
    ds = _sonar(ns)
    result = resonance.sweep_c(ds.features, ns.r, ns.c_grid)
    metrics = result.to_metrics()   # before the CSV: it can raise
    name = _write_csv(ns.out / f"sweep_c_r{ns.r}.csv",
                      resonance.SWEEP_FIELDS, result.rows())
    return metrics, {"sweep_csv": name}


def _run_qsvm(ns: argparse.Namespace):
    ds = _sonar(ns, reduces=ns.arm != "raw")
    n_samples = ds.features.shape[0]
    if ns.folds > n_samples:
        raise ConfigError(f"folds: {ns.folds} folds exceed the {n_samples} "
                          "samples")
    # the largest test fold leaves the smallest training set
    n_train = n_samples - math.ceil(n_samples / ns.folds)
    if n_train < svm.INNER_K:
        raise ConfigError(f"folds: {ns.folds} folds leave {n_train} training "
                          f"samples, fewer than the {svm.INNER_K} inner folds")
    metrics = {}
    gammas = tuple(ns.gammas)
    if ns.arm in ("raw", "both"):
        res = svm.cross_validate(ds.features, ds.labels, k=ns.folds,
                                 seed=ns.seed, gammas=gammas)
        metrics["raw"] = res.to_metrics()
    if ns.arm in ("reduced", "both"):
        reduced = svm.reduced_features(ds.features, ns.r)
        res = svm.cross_validate(reduced, ds.labels, k=ns.folds,
                                 seed=ns.seed, gammas=gammas)
        metrics["reduced"] = res.to_metrics()
    return metrics, {}


def _run_tfim_gen(ns: argparse.Namespace):
    ds = tfim.generate_dataset(
        n_sites=ns.n_sites, count=ns.count, seed=ns.seed,
        ratio_range=tuple(ns.ratio_range), exclusion=tuple(ns.exclusion))
    path = ns.out / "tfim_phase.jsonl"
    ns.out.mkdir(parents=True, exist_ok=True)
    tfim.save_dataset(path, ds)
    metrics = {
        "count": ds.count,
        "n_sites": ds.n_sites,
        "paramagnetic": int(np.sum(ds.labels == 1)),
        "ferromagnetic": int(np.sum(ds.labels == -1)),
        "ratio_min": float(ds.ratios.min()),
        "ratio_max": float(ds.ratios.max()),
    }
    return metrics, {"dataset": path.name}


_REDUCED_ARMS = ("qcnn+qrdr", "mlp+dr")


def _phase_features(ds: tfim.TfimDataset, r_qubits: int, arms):
    """Input rows per arm, plus the reduction metrics of the reduced arms.

    Both reduced arms share one simulated reduction into an r_qubits
    register (:func:`engine.reduce_rows`).  qcnn+qrdr reads the simulator's
    reduced states, and mlp+dr reads the classical projection they target.
    The raw arms read the ground-state amplitudes.
    """
    feats = {arm: ds.features for arm in arms}
    reduction = None
    if any(arm in _REDUCED_ARMS for arm in arms):
        rows, outcome = reduce_rows(ds.features, r_qubits)
        feats["qcnn+qrdr"] = rows
        feats["mlp+dr"] = sample_rows(outcome.target, ds.count)
        reduction = outcome.to_metrics()
    return feats, reduction


def _run_qcnn_train(ns: argparse.Namespace):
    ds = _load(ns, "data", tfim.load_dataset)
    r_reduced = ns.r.bit_length() - 1   # r is 4^k, checked by its type
    n_sites = ds.n_sites
    if n_sites % 2 and "qcnn" in ns.arms:
        raise ConfigError(f"data: odd register of {n_sites} qubits unsupported")
    n_amplitudes = ds.features.shape[1]
    if ns.r > n_amplitudes and not set(ns.arms).isdisjoint(_REDUCED_ARMS):
        raise ConfigError(f"r: rank {ns.r} exceeds the {n_amplitudes} "
                          "amplitudes of the data")
    test_count = max(1, ds.count // 5)
    if ns.batch_size > ds.count - test_count:
        raise ConfigError(f"batch_size: {ns.batch_size} exceeds the "
                          f"{ds.count - test_count} training rows")
    feats, reduction = _phase_features(ds, r_reduced, ns.arms)
    labels = ds.labels

    # every job runs before any file is written: a non-finite parameter
    # raises in to_json_obj, and a diverged arm leaves no output behind
    metrics, runs = {}, []
    for arm in ns.arms:
        use = feats[arm]
        for seed in ns.seeds:
            train_idx, test_idx = dataset_mod.holdout_split(
                ds.count, test_count, seed)
            split = qcnn.SplitData(use[train_idx], labels[train_idx],
                                   use[test_idx], labels[test_idx])
            if arm.startswith("qcnn"):
                fit = qcnn.train
                model = qcnn.QcnnModel.initial(
                    r_reduced if arm == "qcnn+qrdr" else n_sites, seed)
            else:
                fit = qcnn.mlp_baseline
                model = qcnn.MlpModel.initial(use.shape[1], seed)
            result = fit(model, split, qcnn.TrainConfig(
                learning_rate=ns.lr, batch_size=ns.batch_size,
                epochs=ns.epochs, seed=seed))
            runs.append((f"{arm.replace('+', '_')}_s{seed}", result.history,
                         model.with_params(result.final_params).to_json_obj()))
            metrics.setdefault(arm, {})[str(seed)] = {
                f"final_{key}": result.final[key]
                for key in ("train_acc", "test_acc", "test_loss")}
        metrics[arm]["mean_final_test_acc"] = float(np.mean(
            [m["final_test_acc"] for m in metrics[arm].values()]))
        if arm in _REDUCED_ARMS:
            metrics[arm]["reduction"] = reduction

    artifacts = {}
    for tag, history, checkpoint in runs:
        artifacts[f"history_{tag}"] = _write_csv(
            ns.out / f"history_{tag}.csv", qcnn.HISTORY_FIELDS, history)
        artifacts[f"model_{tag}"] = _write_json(
            ns.out / f"model_{tag}.json", checkpoint)
    return metrics, artifacts


def _run_verify(ns: argparse.Namespace):
    from .verify import run_invariants

    results = run_invariants()
    for name, ok, detail in results:
        line = f"{'ok  ' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
    return {"checks": len(results),
            "failed": sum(not ok for _, ok, _ in results),
            "results": {name: {"passed": ok, "detail": detail}
                        for name, ok, detail in results}}, {}


_RUNNERS = {
    "reduce": _run_reduce,
    "sweep-c": _run_sweep,
    "qsvm": _run_qsvm,
    "tfim-gen": _run_tfim_gen,
    "qcnn-train": _run_qcnn_train,
    "verify": _run_verify,
}


def run_experiment(ns: argparse.Namespace) -> dict:
    """Run the subcommand and write its report, which echoes every flag
    but --out, with the input files --dataset and --data named by
    content.  A failing verify check raises only after the report
    that names it is written."""
    metrics, artifacts = _RUNNERS[ns.command](ns)
    config = {key: value for key, value in vars(ns).items() if key != "out"}
    for key in ("dataset", "data"):
        # by content, not path, so the report reads the same from any
        # checkout; CRC-32 because importing hashlib loads OpenSSL, which
        # adds 3.5 MB to peak RSS (CPython 3.11, Linux)
        if config.get(key) is not None:
            path = Path(config[key])
            data = path.read_bytes()
            config[key] = {"name": path.name, "bytes": len(data),
                           "crc32": f"{zlib.crc32(data):08x}"}
    report = {
        "experiment": ns.command,
        "config": config,
        "metrics": metrics,
        "artifacts": artifacts,
    }
    path = ns.out / f"report_{ns.command.replace('-', '_')}.json"
    _write_json(path, report, indent=2)
    print(f"wrote {path}", file=sys.stderr)
    if ns.command == "verify" and metrics["failed"]:
        raise RuntimeError(f"{metrics['failed']} invariant check(s) failed")
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = parse_config(argv)
    except ConfigError as exc:
        print(f"qrdr: error: {exc}", file=sys.stderr)
        return 1
    try:
        run_experiment(ns)
    except ConfigError as exc:
        print(f"qrdr: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure in a pipeline stage
        print(f"qrdr: {ns.command} failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
