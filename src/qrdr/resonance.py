"""Resonance diagnostics for the reduction dynamics.

The probe-component dynamics is a bank of driven two-level transitions:
the resonant pair (probe flip onto the matching component) undergoes a full
Rabi swap at t = 1/c, while every off-resonant pair with detuning Delta
acquires amplitude at most c*pi/||Delta|.  These small leakages set the
infidelity floor epsilon = O(c^2 / delta_min^2); this module provides the
coupling sweep that exhibits the quadratic law on real data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import InadmissibleCoupling, build_hamiltonian, run_qrdr
from .pca import fit_pca

# epsilon values below this are rounding noise, not a measurable error law
EPSILON_FLOOR = 1e-10

# columns of a sweep table, in the order SweepResult.rows() gives them
SWEEP_FIELDS = ("c", "epsilon", "fidelity", "success_probability")


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
    success_probability: np.ndarray
    ideal_probability: float
    delta_min: float
    skipped_c: list = field(default_factory=list)

    @property
    def degenerate_fit(self) -> bool:
        """True when fewer than two couplings were kept or every epsilon
        sits at the rounding floor (exactly compressible data): either way
        a fitted error law would be meaningless."""
        return bool(self.c_values.size < 2
                    or np.max(np.abs(self.epsilon)) < EPSILON_FLOOR)

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
        """One dict per kept coupling, keyed by :data:`SWEEP_FIELDS`; the
        fidelity is 1 - epsilon."""
        for row in zip(self.c_values, self.epsilon, 1.0 - self.epsilon,
                       self.success_probability):
            yield dict(zip(SWEEP_FIELDS, map(float, row)))

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
    """Fit X once, then build and run the reduction once per coupling.

    Couplings that build_hamiltonian rejects (:class:`InadmissibleCoupling`)
    are skipped with a warning and listed in ``skipped_c``; any other error,
    such as a non-finite X or a rank out of range, is raised.
    """
    model = fit_pca(X)
    kept, skipped, outcomes = [], [], []
    for c in sorted(float(c) for c in c_values):
        try:
            h = build_hamiltonian(model, rank, c)
        except InadmissibleCoupling as exc:
            warnings.warn(f"skipping inadmissible coupling c = {c:g}: {exc}",
                          stacklevel=2)
            skipped.append(c)
            continue
        kept.append(c)
        outcomes.append(run_qrdr(h))
    if not outcomes:
        raise ValueError("no admissible coupling in the sweep grid")
    return SweepResult(
        rank=rank,
        c_values=np.asarray(kept),
        epsilon=np.array([o.epsilon for o in outcomes]),
        success_probability=np.array([o.success_probability for o in outcomes]),
        ideal_probability=model.variance_fraction(rank),
        delta_min=model.delta_min(rank),
        skipped_c=skipped,
    )
