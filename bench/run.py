"""qrdr benchmark: run one workload for a fixed time, check its outputs, and
print its metrics as one JSON line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sonar|tfim-gen|qcnn-train \
        --seed N --seconds S --trace 0|1

Each repetition of the workload runs in a fresh process (bench/worker.py)
that imports qrdr from ./src, loads its inputs and then runs the workload's
CLI calls.  Repetitions start one after another while the next one is
expected to end within S seconds; at least one always runs.  More
set-up-only processes follow until set-up has been sampled SETUP_SAMPLES
times.  The metrics are medians over the repetitions.

--trace 0 reports the end-to-end metrics (setup_s, wall_s, cpu_s,
peak_rss_mb).  --trace 1 runs the same repetitions with every public layer
function wrapped in a span (bench/spans.py) and reports the per-layer
metrics instead.  The outputs of every repetition are checked
(bench/checks.py); the last line printed is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A results file with every sample and the machine description goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import cli_steps  # noqa: E402

WORKLOADS = ("sonar", "tfim-gen", "qcnn-train")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0

# One BLAS thread: the CLI runs at --threads 1, the matrices are at most
# 256 x 256, and on a small shared machine a second BLAS thread mostly
# adds spin-waiting and run-to-run noise.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "QRDR_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

# per-layer metrics "<span name>.<field>", read from the span summary of
# each traced repetition
LAYER_FIELDS = (
    "engine.run_qrdr.s", "engine.run_qrdr.calls", "engine.run_qrdr.raised",
    "engine.build_hamiltonian.s", "engine.reduce_rows.s",
    "engine.spread_operator.calls", "engine.spread_operator.s",
    "linalg.hermitian_eig.calls", "linalg.hermitian_eig.s",
    "pca.fit_pca.calls", "pca.fit_pca.s", "resonance.sweep_c.s",
    "svm.cross_validate.s", "svm.select_gamma.s", "svm.r_sweep.s",
    "svm.train_lssvm.calls", "svm.train_lssvm.s", "tfim.generate_dataset.s",
    "tfim.ground_state.calls", "tfim.ground_state.self_s", "tfim.build_tfim.s",
    "tfim.save_dataset.s", "tfim.load_dataset.s", "dataset.load_sonar.s",
    "qcnn.train.s", "qcnn.loss_and_grad.calls", "qcnn.loss_and_grad.s",
    "qcnn.prepare_lcu.calls", "qcnn.prepare_lcu.s", "qcnn.logits.s",
    "qcnn.mlp_baseline.s", "cli.main.s",
)


def layer_units(metric: str) -> str:
    if metric.endswith((".s", ".self_s")):
        return "s"
    if metric.endswith((".calls", ".raised")):
        return "count"
    if metric == "cli.out_bytes":
        return "bytes"
    return "ratio"


def layer_metrics(summary: dict, out_bytes: int) -> dict:
    """Per-layer values of one traced repetition.  A layer the workload
    never calls reads 0."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    values = {metric: get(*metric.rsplit(".", 1)) for metric in LAYER_FIELDS}
    # ratios of counts; a call that raised is not a completed reduction
    outer_folds = get("svm.cross_validate", "units") + get("svm.r_sweep", "units")
    ratios = {
        "engine.eigensolves_per_reduction": (get("linalg.hermitian_eig", "calls"),
                                             get("engine.run_qrdr", "completed")),
        "svm.solves_per_fold": (get("svm.train_lssvm", "calls"), outer_folds),
        "qcnn.forwards_per_step": (get("qcnn.prepare_lcu", "calls"),
                                   get("qcnn.loss_and_grad", "calls")),
    }
    for metric, (num, den) in ratios.items():
        values[metric] = num / den if den else 0.0
    values["cli.out_bytes"] = out_bytes
    return values


# ---------------------------------------------------------------------------
# machine description


def machine(worker_info: dict) -> dict:
    import platform

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **worker_info,
    }


# ---------------------------------------------------------------------------
# child processes


class Runner:
    def __init__(self, root: Path, run_dir: Path, workload: str, seed: int,
                 trace: bool):
        self.root, self.run_dir = root, run_dir
        self.workload, self.seed, self.trace = workload, seed, trace
        self.env = dict(os.environ, **CHILD_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.data = None

    def child(self, argv, what: str):
        proc = subprocess.run(argv, cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{what} exited {proc.returncode}:\n{proc.stderr}")

    def prepare(self):
        """Untimed: the qcnn-train input, written by the program's own
        tfim-gen, and one set-up pass that fills the bytecode cache."""
        if self.workload == "qcnn-train":
            # relative to the checkout root, the workers' working directory:
            # qcnn-train echoes the path in its report, which must not
            # depend on where the checkout lies or on the trace mode
            inp = (self.run_dir / "input").relative_to(self.root)
            self.child([sys.executable, "-m", "qrdr.cli", "tfim-gen",
                        "--seed", str(self.seed), "--threads", "1",
                        "--out", str(inp)], "tfim-gen for the qcnn-train input")
            self.data = inp / "tfim_phase.jsonl"
        return self.rep("warm", setup_only=True, machine=True)["machine"]

    def rep(self, tag: str, setup_only=False, machine=False, trace_file=None):
        result_path = self.run_dir / f"result_{tag}.json"
        spec = {
            "workload": self.workload, "seed": self.seed,
            "src": str(self.root / "src"), "out": str(self.run_dir / tag),
            "data": str(self.data) if self.data else None,
            "trace": self.trace and not setup_only, "setup_only": setup_only,
            "machine": machine, "result": str(result_path),
            "trace_file": str(trace_file) if trace_file else None,
        }
        t_spawn = time.monotonic()
        self.child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                   f"worker {tag}")
        t_exit = time.monotonic()
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result["setup_s"] = result["t_ready"] - t_spawn
        result["process_s"] = t_exit - t_spawn
        return result


# ---------------------------------------------------------------------------


def quartiles(values):
    """(first quartile, median, third quartile) of the samples."""
    if len(values) == 1:
        return values * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def run(args, root: Path) -> dict:
    out_root = root / ".bench_out"
    run_dir = out_root / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, run_dir, args.workload, args.seed, bool(args.trace))
    worker_info = runner.prepare()

    trace_file = run_dir / "trace_rep0.jsonl" if args.trace else None
    reps = []
    start = time.monotonic()
    while True:
        tag = f"rep{len(reps)}"
        reps.append(runner.rep(tag, trace_file=trace_file if not reps else None))
        elapsed = time.monotonic() - start
        if elapsed + reps[-1]["process_s"] > args.seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.rep(f"setup{len(setups)}", setup_only=True)["setup_s"])

    # operations: one per CLI call (plus r_sweep on sonar) per repetition
    attempted = sum(len(r["codes"]) for r in reps)
    failed = sum(code != 0 for r in reps for code in r["codes"].values())
    errors = check_outputs(args, root, runner, reps, failed)

    cli_dirs = [d for _, _, d in cli_steps(args.workload, args.seed,
                                           run_dir / "rep0", runner.data)]
    out_bytes = sum(p.stat().st_size for d in cli_dirs for p in d.rglob("*")
                    if p.is_file())
    # end-to-end samples are kept for traced runs too: traced minus
    # untraced wall_s is the tracing overhead
    samples = {"setup_s": setups,
               **{name: [r[name] for r in reps] for name, _ in END_TO_END
                  if name != "setup_s"}}
    if args.trace:
        per_rep = [layer_metrics(r["layers"], out_bytes) for r in reps]
        metrics = {}
        for name in per_rep[0]:
            unit = layer_units(name)
            # counts stay whole numbers: take the lower median
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": median(r[name] for r in per_rep),
                             "unit": unit}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps),
        "machine": machine(worker_info), "child_env": CHILD_ENV,
        "samples": samples,
        "quartiles": {name: quartiles(vals) for name, vals in samples.items()},
        "layers": [r["layers"] for r in reps] if args.trace else None,
        "errors": errors, "metrics": metrics,
    }
    res_dir = out_root / "results"
    res_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}.json"
    (res_dir / name).write_text(json.dumps(results, indent=1) + "\n")
    # keep the trace and the results; the repetition outputs are large
    for d in run_dir.iterdir():
        if d.is_dir():
            shutil.rmtree(d)
    if not any(run_dir.iterdir()):
        run_dir.rmdir()
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def program_digest(package: Path) -> str:
    """sha256 of the program's source files.  Stored output digests are
    keyed by it, so that editing the program starts a new comparison
    instead of failing against the output of the old program."""
    h = hashlib.sha256()
    for p in sorted(package.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(package)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def check_outputs(args, root: Path, runner: Runner, reps, failed: int) -> list:
    """Full checks on the first repetition; every later one must match it
    byte for byte, and so must earlier runs of the same seed in this
    checkout."""
    if failed:
        return []  # the checks speak of the outputs of operations that ran
    sys.path.insert(0, str(root / "src"))
    from qrdr.dataset import holdout_split, kfold_split

    rep0 = runner.run_dir / "rep0"
    if args.workload == "sonar":
        X, y = checks.read_sonar_csv(root / "src" / "qrdr" / "data" / "sonar.all-data")
        errors = checks.check_sonar(rep0, X, y, args.seed, kfold_split,
                                    holdout_split)
    elif args.workload == "tfim-gen":
        errors = checks.check_tfim(rep0)
    else:
        errors = checks.check_qcnn(rep0, root / runner.data)

    first = checks.digests(rep0)
    for i in range(1, len(reps)):
        if checks.digests(runner.run_dir / f"rep{i}") != first:
            errors.append(f"rep{i}: outputs differ from rep0")
    store = root / ".bench_out" / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{program_digest(root / 'src' / 'qrdr')}:{args.workload}:{args.seed}"
    if key in known and known[key] != first:
        errors.append(f"outputs differ from an earlier run of seed {args.seed}")
    known[key] = first
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, store)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qrdr" / "__init__.py").is_file():
        print("bench: run from the root of a qrdr checkout (src/qrdr missing)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be >= 0", file=sys.stderr)
        return 2
    print(json.dumps(run(args, root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
