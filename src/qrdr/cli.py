"""Experiment runner: one binary, six subcommands.

    reduce      run the resonant reduction once and report fidelity metrics
    sweep-c     trace infidelity against the coupling and fit the error law
    qsvm        LS-SVM cross-validation on raw and rank-reduced features
    tfim-gen    generate the Ising phase dataset (JSON lines)
    qcnn-train  train the quantum/classical classifier arms
    verify      run the cross-module invariant battery

Reports are JSON with sorted keys plus CSV side files, and contain no
volatile fields: rerunning any experiment with the same config and seed
reproduces the report byte for byte (wall-clock timing goes to stderr
only).  Flag precedence is flag > config file > built-in default.  Exit
codes: 0 success, 1 configuration/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from . import qcnn, resonance, svm, tfim
from .engine import build_hamiltonian, reduce_rows, run_qrdr, sample_rows
from .pca import fit_pca


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


@dataclass
class ExperimentConfig:
    command: str
    values: dict
    out_dir: Path
    seed: int
    threads: int

    def __getitem__(self, key):
        return self.values[key]


@dataclass
class ReportRecord:
    experiment: str
    config: dict
    metrics: dict
    artifacts: dict = field(default_factory=dict)


def emit_report(record: ReportRecord, path) -> None:
    text = json.dumps(asdict(record), sort_keys=True, indent=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2; we reserve 2 for failed runs
        self.exit(1, f"{self.prog}: error: {message}\n")


def _comma_list(convert):
    """Flag type for a comma-separated list of ``convert``-ed items."""
    def parse(text: str):
        try:
            return [convert(x.strip()) for x in text.split(",") if x.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return parse


_ARMS = ("qcnn+qrdr", "qcnn", "mlp+dr", "mlp")


def _arm(name: str) -> str:
    if name not in _ARMS:
        raise ValueError(f"unknown arm {name!r}")
    return name


# flags every subcommand takes; the rest are the experiment's own values
_COMMON = ("command", "seed", "threads", "config", "out")


def build_parser() -> _Parser:
    """The one place where every setting is declared, defaulted and typed.

    String defaults pass through their flag's type like command-line values.
    Flags cannot be abbreviated, so a config key never stands for another."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=7,
                        help="base random seed (default 7)")
    common.add_argument("--threads", type=int,
                        default=os.environ.get("QRDR_THREADS", "1"),
                        help="worker thread bound (default QRDR_THREADS or 1)")
    common.add_argument("--config", type=str, default=None,
                        help="JSON object of flag values; explicit flags win")
    common.add_argument("--out", type=Path, default=".",
                        help="output directory for reports (default .)")
    sonar = str(dataset_mod.sonar_path())

    parser = _Parser(prog="qrdr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, parents=[common], help=summary,
                              allow_abbrev=False)

    p = command("reduce", "run the resonant reduction once")
    p.add_argument("--dataset", type=str, default=sonar)
    p.add_argument("--r", type=int, default=16, help="target rank R")
    p.add_argument("--c", type=float, default=0.004, help="resonant coupling")

    p = command("sweep-c", "infidelity across a coupling grid")
    p.add_argument("--dataset", type=str, default=sonar)
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--c-grid", dest="c_grid", type=_comma_list(float),
                   default=list(resonance.DEFAULT_C_GRID))

    p = command("qsvm", "LS-SVM cross-validation")
    p.add_argument("--dataset", type=str, default=sonar)
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--folds", type=int, default=8)
    p.add_argument("--arm", choices=("raw", "reduced", "both"), default="both")
    p.add_argument("--gammas", type=_comma_list(float),
                   default=list(svm.GAMMA_GRID))

    p = command("tfim-gen", "generate the Ising phase dataset")
    p.add_argument("--n-sites", dest="n_sites", type=int, default=8)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--ratio-range", dest="ratio_range",
                   type=_comma_list(float), default=[0.2, 1.8])
    p.add_argument("--exclusion", type=_comma_list(float),
                   default=[0.95, 1.05])
    p.add_argument("--out-file", dest="out_file", type=str, default=None)

    p = command("qcnn-train", "train classifier arms on the phase dataset")
    p.add_argument("--data", type=str, default=None,
                   help="phase dataset JSONL (generated in memory if omitted)")
    p.add_argument("--r", type=int, default=16)
    p.add_argument("--arms", type=_comma_list(_arm), default=",".join(_ARMS),
                   help="comma list from " + ",".join(_ARMS))
    p.add_argument("--seeds", type=_comma_list(int), default=None,
                   help="comma list of training seeds (default: the base seed)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.01)

    command("verify", "run the invariant battery")
    return parser


def _config_flags(path) -> list:
    """A --config JSON object as flags: ``{"c_grid": [1, 2]}`` reads as
    ``--c-grid=1,2``; a null value leaves the flag at its default."""
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config: file not found: {cfg_path}")
    try:
        values = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config: top level must be a JSON object")
    if "config" in values:
        raise ConfigError("config: a config file cannot name another")
    flags = []
    for key, value in values.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def parse_config(argv) -> ExperimentConfig:
    """Parse flags, with config-file values read as flags, and check ranges.

    The config file's flags go right after the subcommand, so flags given
    on the command line win over them.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        ns = parser.parse_args([ns.command, *_config_flags(ns.config),
                                *argv[1:]])
    values = {key: val for key, val in vars(ns).items() if key not in _COMMON}
    if ns.threads < 1:
        raise ConfigError(f"threads: must be >= 1, got {ns.threads}")
    if "r" in values and values["r"] < 1:
        raise ConfigError(f"r: rank must be >= 1, got {values['r']}")
    if "folds" in values and values["folds"] < 2:
        raise ConfigError(f"folds: need at least 2, got {values['folds']}")
    for key in ("dataset", "data"):
        if values.get(key) is not None and not Path(values[key]).is_file():
            raise ConfigError(f"{key}: file not found: {values[key]}")
    if ns.command == "qcnn-train":
        rank = values["r"]
        if rank & (rank - 1) or (rank.bit_length() - 1) % 2:
            raise ConfigError(
                f"r: rank {rank} does not map to an even reduced register"
            )
        if values["seeds"] is None:
            values["seeds"] = [ns.seed]
    return ExperimentConfig(command=ns.command, values=values,
                            out_dir=ns.out, seed=ns.seed, threads=ns.threads)


def _bounded_map(fn, items, threads: int):
    """Order-preserving map over independent work items."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {"command": cfg.command, "seed": cfg.seed, "threads": cfg.threads,
            **cfg.values}


# ---------------------------------------------------------------------------
# experiment runners


def _load(cfg: ExperimentConfig, key: str, loader):
    # a malformed or non-finite input file is an input error (exit 1)
    try:
        return loader(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _sonar(cfg: ExperimentConfig, reduces: bool = True):
    """The --dataset matrix, checked against --r when the run reduces it."""
    ds = _load(cfg, "dataset", dataset_mod.load_sonar)
    if reduces and cfg["r"] > ds.n_features:
        raise ConfigError(f"r: rank {cfg['r']} exceeds {ds.n_features} features")
    return ds


def _writable(path: Path) -> Path:
    # an output directory is made only when something is written to it
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _run_reduce(cfg: ExperimentConfig) -> ReportRecord:
    ds = _sonar(cfg)
    out = run_qrdr(build_hamiltonian(fit_pca(ds.features), cfg["r"], cfg["c"]))
    return ReportRecord("reduce", _config_echo(cfg), out.to_metrics())


def _run_sweep(cfg: ExperimentConfig) -> ReportRecord:
    ds = _sonar(cfg)
    result = resonance.sweep_c(ds.features, cfg["r"], cfg["c_grid"])
    csv_path = _writable(cfg.out_dir / f"sweep_c_r{cfg['r']}.csv")
    result.write_csv(csv_path)
    return ReportRecord("sweep-c", _config_echo(cfg), result.to_metrics(),
                        artifacts={"sweep_csv": csv_path.name})


def _run_qsvm(cfg: ExperimentConfig) -> ReportRecord:
    ds = _sonar(cfg, reduces=cfg["arm"] != "raw")
    metrics = {}
    gammas = tuple(cfg["gammas"])
    if cfg["arm"] in ("raw", "both"):
        res = svm.cross_validate(ds.features, ds.labels, k=cfg["folds"],
                                 seed=cfg.seed, gammas=gammas)
        metrics["raw"] = res.to_metrics()
    if cfg["arm"] in ("reduced", "both"):
        reduced = svm.reduced_features(ds.features, cfg["r"])
        res = svm.cross_validate(reduced, ds.labels, k=cfg["folds"],
                                 seed=cfg.seed, gammas=gammas)
        metrics["reduced"] = res.to_metrics()
    return ReportRecord("qsvm", _config_echo(cfg), metrics)


def _run_tfim_gen(cfg: ExperimentConfig) -> ReportRecord:
    ds = tfim.generate_dataset(
        n_sites=cfg["n_sites"], count=cfg["count"], seed=cfg.seed,
        ratio_range=tuple(cfg["ratio_range"]),
        exclusion=tuple(cfg["exclusion"]), J=cfg["j"],
    )
    out_file = cfg["out_file"]
    path = _writable(Path(out_file) if out_file
                     else tfim.default_dataset_path(cfg.out_dir))
    tfim.save_dataset(path, ds)
    metrics = {
        "count": ds.count,
        "n_sites": ds.n_sites,
        "paramagnetic": int(np.sum(ds.labels == 1)),
        "ferromagnetic": int(np.sum(ds.labels == -1)),
        "ratio_min": float(ds.ratios.min()),
        "ratio_max": float(ds.ratios.max()),
    }
    return ReportRecord("tfim-gen", _config_echo(cfg), metrics,
                        artifacts={"dataset": path.name})


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


def _run_qcnn_train(cfg: ExperimentConfig) -> ReportRecord:
    if cfg["data"] is not None:
        ds = _load(cfg, "data", tfim.load_dataset)
    else:
        ds = tfim.generate_dataset(seed=cfg.seed)
    r_reduced = cfg["r"].bit_length() - 1   # r is 4^k, checked in parse_config
    n_sites = ds.n_sites
    if n_sites % 2:
        raise ConfigError(f"data: odd register of {n_sites} qubits unsupported")
    feats, reduction = _phase_features(ds, r_reduced, cfg["arms"])
    labels = ds.labels

    def run_one(job):
        arm, seed = job
        train_idx, test_idx = dataset_mod.holdout_split(
            ds.count, max(1, ds.count // 5), seed)
        use = feats[arm]
        split = qcnn.SplitData(use[train_idx], labels[train_idx],
                               use[test_idx], labels[test_idx])
        tcfg = qcnn.TrainConfig(learning_rate=cfg["lr"],
                                batch_size=cfg["batch_size"],
                                epochs=cfg["epochs"], seed=seed)
        if arm.startswith("qcnn"):
            r = r_reduced if arm == "qcnn+qrdr" else n_sites
            model = qcnn.QcnnModel.initial(r, seed)
            result = qcnn.train(model, split, tcfg)
            checkpoint = model.with_params(result.final_params).to_json_obj()
        else:
            result = qcnn.mlp_baseline(split, tcfg)
            checkpoint = {"kind": "mlp",
                          "params": [float(p) for p in result.final_params]}
        return arm, seed, result, checkpoint

    jobs = [(arm, seed) for arm in cfg["arms"] for seed in cfg["seeds"]]
    outputs = _bounded_map(run_one, jobs, cfg.threads)

    metrics = {}
    artifacts = {}
    for arm, seed, result, checkpoint in outputs:
        tag = f"{arm.replace('+', '_')}_s{seed}"
        hist_path = _writable(cfg.out_dir / f"history_{tag}.csv")
        result.write_csv(hist_path)
        ckpt_path = cfg.out_dir / f"model_{tag}.json"
        with open(ckpt_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(checkpoint, sort_keys=True) + "\n")
        artifacts[f"history_{tag}"] = hist_path.name
        artifacts[f"model_{tag}"] = ckpt_path.name
        metrics.setdefault(arm, {})[str(seed)] = {
            "final_train_acc": result.final["train_acc"],
            "final_test_acc": result.final["test_acc"],
            "final_test_loss": result.final["test_loss"],
        }
    for arm in cfg["arms"]:
        per_seed = metrics[arm]
        metrics[arm]["mean_final_test_acc"] = float(np.mean(
            [per_seed[str(s)]["final_test_acc"] for s in cfg["seeds"]]
        ))
        if arm in _REDUCED_ARMS:
            metrics[arm]["reduction"] = reduction
    return ReportRecord("qcnn-train", _config_echo(cfg), metrics,
                        artifacts=artifacts)


def _run_verify(cfg: ExperimentConfig) -> ReportRecord:
    from .verify import run_invariants

    results = run_invariants()
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        line = f"{'ok  ' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
    if failed:
        raise RuntimeError(f"{len(failed)} invariant check(s) failed: "
                           + ", ".join(failed))
    return ReportRecord("verify", _config_echo(cfg),
                        {"checks": len(results), "failed": 0})


_RUNNERS = {
    "reduce": _run_reduce,
    "sweep-c": _run_sweep,
    "qsvm": _run_qsvm,
    "tfim-gen": _run_tfim_gen,
    "qcnn-train": _run_qcnn_train,
    "verify": _run_verify,
}


def run_experiment(cfg: ExperimentConfig) -> ReportRecord:
    record = _RUNNERS[cfg.command](cfg)
    report_path = _writable(
        cfg.out_dir / f"report_{cfg.command.replace('-', '_')}.json")
    emit_report(record, report_path)
    print(f"wrote {report_path}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"qrdr: error: {exc}", file=sys.stderr)
        return 1
    try:
        run_experiment(cfg)
    except ConfigError as exc:
        print(f"qrdr: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure in a pipeline stage
        print(f"qrdr: {cfg.command} failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
