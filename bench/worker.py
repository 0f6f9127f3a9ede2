"""One repetition of a benchmark workload, in a fresh process.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON names the workload, the program seed, the output directory, the
input file (qcnn-train), whether to trace, and the file to write the
result to.  Times are read from ``time.monotonic`` (CLOCK_MONOTONIC on
Linux), which the parent process shares, so the parent can measure set-up
from the moment it started this process.

With ``"setup_only": true`` the worker stops once its inputs are ready: the
parent runs a few of these to take more samples of set-up time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SONAR_SWEEP_RANKS = (4, 8, 16, 32)
R_SWEEP = {"ranks": (4, 8, 16, 32), "reps": 8}


def cli_steps(workload: str, seed: int, out: Path, data=None):
    """The CLI calls of one workload repetition: (label, argv, out dir)."""
    common = ["--threads", "1", "--seed", str(seed)]
    if workload == "sonar":
        steps = [("reduce", ["reduce", "--r", "16", "--c", "0.004"],
                  out / "reduce")]
        steps += [(f"sweep_r{r}", ["sweep-c", "--r", str(r)],
                   out / f"sweep_r{r}") for r in SONAR_SWEEP_RANKS]
        steps.append(("qsvm", ["qsvm", "--folds", "8", "--arm", "both",
                               "--r", "16"], out / "qsvm"))
    elif workload == "tfim-gen":
        steps = [("tfim_gen", ["tfim-gen", "--n-sites", "8", "--count", "200"],
                  out / "tfim_gen")]
    elif workload == "qcnn-train":
        steps = [("qcnn_train", ["qcnn-train", "--data", str(data),
                                 "--r", "16", "--epochs", "20",
                                 "--batch-size", "20"], out / "qcnn_train")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(label, argv + common + ["--out", str(d)], d)
            for label, argv, d in steps]


def _openblas_call(suffix: str, restype):
    """Call openblas_<suffix> in the OpenBLAS that numpy loaded; None if
    there is no such library or symbol."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}64_",
                     f"openblas_{suffix}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def machine_info() -> dict:
    """numpy and its BLAS build, as the workload's process sees them."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_call("get_config", ctypes.c_char_p)
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "blas_runtime": runtime.decode() if runtime else None,
            "blas_threads": _openblas_call("get_num_threads", ctypes.c_int)}


def _import_program(src: Path):
    import qrdr
    import qrdr.cli  # noqa: F401  (loads every module the workloads use)

    where = Path(qrdr.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"worker: qrdr imported from {where}, not from {src}")
    return qrdr


def main(argv) -> int:
    spec = json.loads(argv[1])
    src = Path(spec["src"])
    qrdr = _import_program(src)
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer().install()
    workload, seed = spec["workload"], int(spec["seed"])

    # inputs: the sonar matrix for r_sweep, the phase dataset for qcnn-train
    inputs = None
    if workload == "sonar":
        inputs = qrdr.dataset.load_sonar()
    elif workload == "qcnn-train":
        inputs = qrdr.tfim.load_dataset(spec["data"])
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if spec.get("machine"):
        result["machine"] = machine_info()
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    out = Path(spec["out"])
    steps = cli_steps(workload, seed, out, spec.get("data"))
    codes = {}
    cpu0 = time.process_time()
    t0 = time.monotonic()
    for label, argv, _ in steps:
        codes[label] = qrdr.cli.main(argv)
    if workload == "sonar":
        try:
            res = qrdr.svm.r_sweep(inputs.features, inputs.labels,
                                   ranks=R_SWEEP["ranks"],
                                   reps=R_SWEEP["reps"], seed=seed)
            (out / "r_sweep").mkdir(parents=True, exist_ok=True)
            with open(out / "r_sweep" / "r_sweep.json", "w",
                      encoding="ascii") as fh:
                fh.write(json.dumps(res.to_metrics(), sort_keys=True) + "\n")
            codes["r_sweep"] = 0
        except Exception as exc:  # counted as a failed operation
            print(f"worker: r_sweep failed: {exc!r}", file=sys.stderr)
            codes["r_sweep"] = 2
    t_done = time.monotonic()
    cpu1 = time.process_time()
    result.update(
        wall_s=t_done - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        codes=codes,
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        if spec.get("trace_file"):
            tracer.write_jsonl(spec["trace_file"], origin=t0)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
