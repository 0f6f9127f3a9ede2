"""Span tracing of qrdr's public functions, applied from outside the package.

The tracer replaces each listed function with a wrapper that records one
span per call: name, start, end and the index of the enclosing span.  A
function that another module imported by name (``hermitian_eig`` inside
``qrdr.engine``, ``run_qrdr`` inside ``qrdr.resonance``) is replaced in
every qrdr module that holds it, so a call is counted wherever the name is
looked up.  Spans stay in memory until :meth:`Tracer.summary` or
:meth:`Tracer.write_jsonl` reads them.

The span stack is a plain list: the workloads run at ``--threads 1``, so
spans nest strictly.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (layer, module, function): the span is named "<layer>.<function>"
TRACED = (
    ("cli", "qrdr.cli", "main"),
    ("dataset", "qrdr.dataset", "load_sonar"),
    ("linalg", "qrdr.linalg", "hermitian_eig"),
    ("pca", "qrdr.pca", "fit_pca"),
    ("engine", "qrdr.engine", "run_qrdr"),
    ("engine", "qrdr.engine", "reduce_rows"),
    ("engine", "qrdr.engine", "build_hamiltonian"),
    ("engine", "qrdr.engine", "spread_operator"),
    ("resonance", "qrdr.resonance", "sweep_c"),
    ("svm", "qrdr.svm", "cross_validate"),
    ("svm", "qrdr.svm", "r_sweep"),
    ("svm", "qrdr.svm", "select_gamma"),
    ("svm", "qrdr.svm", "train_lssvm"),
    ("tfim", "qrdr.tfim", "generate_dataset"),
    ("tfim", "qrdr.tfim", "ground_state"),
    ("tfim", "qrdr.tfim", "build_tfim"),
    ("tfim", "qrdr.tfim", "save_dataset"),
    ("tfim", "qrdr.tfim", "load_dataset"),
    ("qcnn", "qrdr.qcnn", "train"),
    ("qcnn", "qrdr.qcnn", "mlp_baseline"),
    ("qcnn", "qrdr.qcnn", "loss_and_grad"),
    ("qcnn", "qrdr.qcnn", "logits"),
    ("qcnn", "qrdr.qcnn", "prepare_lcu"),
)


# spans whose call arguments give a count of units of work, summed per
# name: the outer folds a cross-validation or rank sweep evaluates
UNITS = {
    "svm.cross_validate": lambda args: int(args["k"]),
    "svm.r_sweep": lambda args: len(tuple(args["ranks"])) * int(args["reps"]),
}


class Tracer:
    def __init__(self):
        self.names = []      # span name per span
        self.starts = []
        self.ends = []
        self.parents = []    # index of the enclosing span, -1 at top level
        self.raised = []     # indices of spans whose call raised
        self.units = {}      # name -> summed unit count
        self._stack = []
        self._installed = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        unit = UNITS.get(name)
        sig = inspect.signature(fn) if unit else None
        names, starts, ends, parents, raised = (
            self.names, self.starts, self.ends, self.parents, self.raised)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if unit:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.units[name] = self.units.get(name, 0) + unit(bound.arguments)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every TRACED function in every qrdr module holding it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qrdr" or key.startswith("qrdr."))]
        for layer, modname, attr in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def summary(self) -> dict:
        """Per span name: calls, calls that raised, completed calls,
        inclusive seconds and self seconds."""
        n = len(self.names)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(self.names[i], {"calls": 0, "raised": 0,
                                                 "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_time[i]
        for i in self.raised:
            out[self.names[i]]["raised"] += 1
        for agg in out.values():
            agg["completed"] = agg["calls"] - agg["raised"]
        for name, units in self.units.items():
            out[name]["units"] = units
        return out

    def write_jsonl(self, path, origin: float) -> None:
        """One span per line; times are seconds after ``origin``."""
        raised = set(self.raised)
        with open(path, "w", encoding="ascii") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i] - origin,
                    "end": self.ends[i] - origin, "raised": i in raised,
                }) + "\n")
