"""Transverse-field Ising chains and the phase-classification dataset.

    H = -J sum_i Z_i Z_{i+1} + h sum_i X_i        (open boundary)

Site 0 maps to the most significant bit of the computational index.  Ground
states are computed by dense diagonalisation; the dataset pairs each ground
state with the phase label of its coupling ratio (h/J > 1 paramagnetic,
labelled +1; h/J < 1 ferromagnetic, labelled -1), sampling ratios uniformly
outside a window around the critical point and balancing the two classes
exactly.  Datasets persist as JSON lines with full-precision floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (load_jsonl, make_rng, require_finite, require_labels,
                      save_jsonl)


def _validate(n_sites: int, J: float, h: float) -> None:
    if n_sites < 2:
        raise ValueError("need at least 2 sites for a coupling term")
    if not 0 < J < np.inf:
        raise ValueError(f"coupling J must be positive and finite, got {J}")
    if not 0 <= h < np.inf:
        raise ValueError(f"field h must be non-negative and finite, got {h}")


def build_tfim(n_sites: int, J: float = 1.0, h: float = 1.0) -> np.ndarray:
    """Dense open-chain Hamiltonian matrix, dimension 2^n_sites."""
    _validate(n_sites, J, h)
    s = np.arange(2 ** n_sites)
    # z[s, i] = +/-1: the Z eigenvalue of site i (bit n - 1 - i) in state s
    z = 1 - 2 * ((s[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1)
    H = np.zeros((s.size, s.size))
    H[s, s] = -J * (z[:, :-1] * z[:, 1:]).sum(axis=1)
    for i in range(n_sites):
        H[s ^ (1 << (n_sites - 1 - i)), s] = h
    return H


def parity_operator(n_sites: int) -> np.ndarray:
    """Global spin flip prod_i X_i (the Z2 symmetry of the chain)."""
    dim = 2 ** n_sites
    P = np.zeros((dim, dim))
    P[np.arange(dim) ^ (dim - 1), np.arange(dim)] = 1.0
    return P


@dataclass
class GroundState:
    """Lowest eigenpair of one chain."""

    energy: float
    amplitudes: np.ndarray


def ground_state(n_sites: int, J: float, h: float) -> GroundState:
    """Ground state of the chain, real with a deterministic global sign.

    At h = 0 the two fully polarised states are exactly degenerate and no
    unique ground state exists, so that case raises.
    """
    _validate(n_sites, J, h)
    if h == 0:
        raise ValueError(
            "h = 0: ground state exactly doubly degenerate, no unique "
            "phase representative exists"
        )
    w, U = np.linalg.eigh(build_tfim(n_sites, J, h))
    state = U[:, 0]
    if state[np.argmax(np.abs(state))] < 0:
        state = -state
    return GroundState(energy=float(w[0]), amplitudes=state)


@dataclass
class TfimDataset:
    """Ground-state amplitudes with phase labels, sorted by ratio h/J.

    Each record holds 2^n_sites finite real amplitudes and a +1/-1 label;
    the first bad value is rejected, naming its 1-based record (and
    amplitude).
    """

    features: np.ndarray   # (count, 2^n_sites) real amplitudes
    labels: np.ndarray     # +1 paramagnetic, -1 ferromagnetic
    ratios: np.ndarray     # h / J per sample
    n_sites: int
    J: float
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = require_finite(self.features, "record", "amplitude")
        if self.features.shape[1] != 2 ** self.n_sites:
            raise ValueError(f"{self.n_sites} sites need {2 ** self.n_sites} "
                             f"amplitudes per record, got "
                             f"{self.features.shape[1]}")
        self.labels = require_labels(self.labels, self.count, "record")

    @property
    def count(self) -> int:
        return self.features.shape[0]


def generate_dataset(n_sites: int = 8, count: int = 200, seed: int = 7,
                     ratio_range=(0.2, 1.8), exclusion=(0.95, 1.05),
                     J: float = 1.0) -> TfimDataset:
    """Sample ground states on both sides of the transition.

    ``count``/2 ratios are drawn uniformly from each of
    [ratio_range[0], exclusion[0]] and [exclusion[1], ratio_range[1]], so
    the classes are exactly balanced and the critical window is excluded.
    Samples are sorted by ratio for deterministic assembly.
    """
    if count <= 0 or count % 2:
        raise ValueError("count must be positive and even for balanced classes")
    lo, hi = ratio_range
    ex_lo, ex_hi = exclusion
    if not lo < ex_lo < 1.0 < ex_hi < hi:
        raise ValueError(
            "admissible ratio ranges are empty: need "
            "ratio_range[0] < exclusion[0] < 1 < exclusion[1] < ratio_range[1]"
        )
    rng = make_rng(seed, 3)
    half = count // 2
    ratios = np.concatenate([
        rng.uniform(lo, ex_lo, half),
        rng.uniform(ex_hi, hi, half),
    ])
    ratios.sort()
    features = np.empty((count, 2 ** n_sites))
    for i, ratio in enumerate(ratios):
        features[i] = ground_state(n_sites, J, J * ratio).amplitudes
    labels = np.where(ratios > 1.0, 1, -1)
    return TfimDataset(
        features=features,
        labels=labels,
        ratios=ratios,
        n_sites=n_sites,
        J=J,
        seed=seed,
        meta={"ratio_range": list(ratio_range), "exclusion": list(exclusion)},
    )


def save_dataset(path, ds: TfimDataset) -> None:
    """Persist as JSON lines: a header record, then one record per sample."""
    header = {
        "kind": "tfim-phase",
        "n_sites": ds.n_sites,
        "J": ds.J,
        "boundary": "open",
        "seed": ds.seed,
        "count": ds.count,
        **ds.meta,
    }
    records = (
        {
            "h_over_j": float(ds.ratios[i]),
            "label": int(ds.labels[i]),
            "amplitudes": [float(a) for a in ds.features[i]],
        }
        for i in range(ds.count)
    )
    save_jsonl(path, header, records)


def _fields(obj, keys, where: str) -> list:
    # the values of ``keys`` in one JSON object of a phase file
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    return [obj[key] for key in keys]


def load_dataset(path) -> TfimDataset:
    """Read a file written by :func:`save_dataset`.

    A missing field raises ``ValueError`` naming the header or the 1-based
    record, as do the checks of :class:`TfimDataset`.
    """
    header, records = load_jsonl(path)
    if not isinstance(header, dict) or header.get("kind") != "tfim-phase":
        raise ValueError(f"{path}: not a phase dataset file")
    if not records:
        raise ValueError(f"{path}: no records")
    n_sites, J, seed = _fields(header, ("n_sites", "J", "seed"), "header")
    amplitudes, labels, ratios = zip(*(
        _fields(rec, ("amplitudes", "label", "h_over_j"), f"record {i}")
        for i, rec in enumerate(records, start=1)))
    meta = {k: header[k] for k in ("ratio_range", "exclusion") if k in header}
    return TfimDataset(
        features=amplitudes,
        labels=labels,
        ratios=np.array(ratios),
        n_sites=int(n_sites),
        J=float(J),
        seed=int(seed),
        meta=meta,
    )


def default_dataset_path(directory) -> Path:
    return Path(directory) / "tfim_phase.jsonl"
