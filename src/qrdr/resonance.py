"""Resonance diagnostics for the reduction dynamics.

The probe-component dynamics is a bank of driven two-level transitions:
the resonant pair (probe flip onto the matching component) undergoes a full
Rabi swap at t = 1/c, while every off-resonant pair with detuning Delta
acquires amplitude at most c*pi/||Delta|.  These small leakages set the
infidelity floor epsilon = O(c^2 / delta_min^2); this module provides the
closed-form pieces, a certified lower bound on the retained amplitude, and
the coupling sweep that exhibits the quadratic law on real data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import run_qrdr

# epsilon values below this are rounding noise, not a measurable error law
EPSILON_FLOOR = 1e-10


def offresonance_amplitude(c: float, weight: float, detuning: float) -> float:
    """Peak amplitude of an off-resonant transition.

    ``weight`` is the drive matrix element in units of c*pi/2 (so 1 for the
    +/-1 spread-operator entries), ``detuning`` the energy mismatch.  The
    exact Rabi peak is d / sqrt(d^2 + detuning^2) with d = c*pi*weight.
    """
    if detuning == 0:
        raise ValueError("detuning must be nonzero for an off-resonant pair")
    d = c * math.pi * weight
    return abs(d) / math.sqrt(d * d + detuning * detuning)


def offresonance_bound(c: float, weight: float, detuning: float) -> float:
    """First-order bound c*pi*weight / |detuning| on the same amplitude."""
    if detuning == 0:
        raise ValueError("detuning must be nonzero for an off-resonant pair")
    return abs(c * math.pi * weight / detuning)


def alpha_lower_bound(eigenvalues: np.ndarray, rank: int, c: float,
                      r_qubits: int | None = None) -> float:
    """Certified lower bound on the retained amplitude |alpha_k|^2.

    Subtracts the summed squared leakage bounds from 1, for the worst
    resonant component k.  Two certificates are computed -- one from the
    actual pairwise gaps, one from the index distances scaled by the
    minimal gap (valid for any sorted spectrum) -- and the smaller is
    returned.  When ``r_qubits`` is given, leakage into the padding levels
    at +eigenvalues[0] is included as well.
    """
    lam = np.asarray(eigenvalues, dtype=float)[:rank]
    d = c * math.pi
    worst_gap = 0.0
    worst_idx = 0.0
    delta_min = np.inf
    for k in range(rank):
        for j in range(rank):
            if j != k:
                delta_min = min(delta_min, abs(lam[j] - lam[k]))
    for k in range(rank):
        s_gap = sum((d / (lam[j] - lam[k])) ** 2 for j in range(rank) if j != k)
        s_idx = sum((d / delta_min) ** 2 / (j - k) ** 2
                    for j in range(rank) if j != k)
        if r_qubits is not None:
            pad = (2 ** r_qubits - rank) * (d / (lam[0] + lam[k])) ** 2
            s_gap += pad
            s_idx += pad
        worst_gap = max(worst_gap, s_gap)
        worst_idx = max(worst_idx, s_idx)
    return 1.0 - max(worst_gap, worst_idx)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0:
        raise ValueError("constant input has no correlation")
    return float(xc @ yc / denom)


@dataclass
class SweepResult:
    """Infidelity and success probability across a grid of couplings."""

    rank: int
    c_values: np.ndarray
    epsilon: np.ndarray
    fidelity: np.ndarray
    success_probability: np.ndarray
    ideal_probability: float
    delta_min: float
    skipped_c: list = field(default_factory=list)

    @property
    def degenerate_fit(self) -> bool:
        """True when every epsilon sits at the rounding floor (exactly
        compressible data), making any fitted error law meaningless."""
        return bool(np.max(np.abs(self.epsilon)) < EPSILON_FLOOR)

    def quadratic_correlation(self) -> float:
        """Pearson correlation of epsilon against c^2."""
        return pearson(self.epsilon, self.c_values ** 2)

    def loglog_correlation(self) -> float:
        """Pearson correlation of log(1/c) against log(1/sqrt(epsilon))."""
        return pearson(np.log(1.0 / self.c_values),
                       np.log(1.0 / np.sqrt(self.epsilon)))

    def power_law(self):
        """(slope, intercept) of the least-squares fit of log eps vs log c."""
        logs = np.log(self.c_values)
        loge = np.log(self.epsilon)
        A = np.stack([logs, np.ones_like(logs)], axis=1)
        coef, *_ = np.linalg.lstsq(A, loge, rcond=None)
        return float(coef[0]), float(coef[1])

    def rows(self):
        for i, c in enumerate(self.c_values):
            yield {
                "c": float(c),
                "epsilon": float(self.epsilon[i]),
                "fidelity": float(self.fidelity[i]),
                "success_probability": float(self.success_probability[i]),
            }

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["c", "epsilon", "fidelity", "success_probability"]
            )
            writer.writeheader()
            for row in self.rows():
                writer.writerow({k: repr(v) for k, v in row.items()})

    def to_metrics(self) -> dict:
        metrics = {
            "rank": self.rank,
            "c_values": [float(c) for c in self.c_values],
            "epsilon": [float(e) for e in self.epsilon],
            "success_probability": [float(p) for p in self.success_probability],
            "ideal_probability": self.ideal_probability,
            "delta_min": self.delta_min,
            "skipped_c": [float(c) for c in self.skipped_c],
            "degenerate_fit": self.degenerate_fit,
        }
        if self.degenerate_fit:
            metrics.update(quadratic_correlation=None, loglog_correlation=None,
                           power_law_slope=None, power_law_intercept=None)
        else:
            slope, intercept = self.power_law()
            metrics.update(
                quadratic_correlation=self.quadratic_correlation(),
                loglog_correlation=self.loglog_correlation(),
                power_law_slope=slope,
                power_law_intercept=intercept,
            )
        return metrics


# default coupling grid: geometric doublings over the regime where the
# quadratic law is cleanly visible on the sonar benchmark
DEFAULT_C_GRID = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032)


def sweep_c(X: np.ndarray, rank: int, c_values=DEFAULT_C_GRID) -> SweepResult:
    """Run the reduction once per coupling and collect the error curve.

    Couplings the Hamiltonian builder rejects (c at or beyond the minimal
    gap) are skipped with a warning and listed in ``skipped_c`` rather than
    aborting the whole sweep.
    """
    kept, skipped, outcomes = [], [], []
    for c in sorted(float(c) for c in c_values):
        try:
            out = run_qrdr(X, rank, c)
        except ValueError as exc:
            warnings.warn(f"skipping inadmissible coupling c = {c:g}: {exc}",
                          stacklevel=2)
            skipped.append(c)
            continue
        kept.append(c)
        outcomes.append(out)
    if not outcomes:
        raise ValueError("no admissible coupling in the sweep grid")
    return SweepResult(
        rank=rank,
        c_values=np.asarray(kept),
        epsilon=np.array([o.epsilon for o in outcomes]),
        fidelity=np.array([o.fidelity for o in outcomes]),
        success_probability=np.array([o.success_probability for o in outcomes]),
        ideal_probability=float(outcomes[-1].ideal_probability),
        delta_min=float(outcomes[-1].delta_min),
        skipped_c=skipped,
    )
