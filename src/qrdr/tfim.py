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

from .dataset import load_jsonl, make_rng, require_finite, save_jsonl


def _validate(n_sites: int, J: float, h: float) -> None:
    if n_sites < 2:
        raise ValueError("need at least 2 sites for a coupling term")
    if J <= 0:
        raise ValueError(f"coupling J must be positive, got {J}")
    if h < 0:
        raise ValueError(f"field h must be non-negative, got {h}")


def build_tfim(n_sites: int, J: float = 1.0, h: float = 1.0) -> np.ndarray:
    """Dense open-chain Hamiltonian matrix, dimension 2^n_sites."""
    _validate(n_sites, J, h)
    dim = 2 ** n_sites
    H = np.zeros((dim, dim))
    for s in range(dim):
        zz = 0.0
        for i in range(n_sites - 1):
            za = 1 - 2 * ((s >> (n_sites - 1 - i)) & 1)
            zb = 1 - 2 * ((s >> (n_sites - 2 - i)) & 1)
            zz += za * zb
        H[s, s] = -J * zz
        for i in range(n_sites):
            H[s ^ (1 << (n_sites - 1 - i)), s] += h
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


def squared_magnetization(state: np.ndarray, n_sites: int) -> float:
    """<(sum_i Z_i / n)^2>: order parameter for the ferromagnetic phase."""
    dim = 2 ** n_sites
    state = np.asarray(state)
    ztot = np.array([
        sum(1 - 2 * ((s >> (n_sites - 1 - i)) & 1) for i in range(n_sites))
        for s in range(dim)
    ], dtype=float)
    return float(np.sum(np.abs(state) ** 2 * ztot ** 2) / n_sites ** 2)


@dataclass
class TfimDataset:
    """Ground-state amplitudes with phase labels, sorted by ratio h/J; a NaN
    or infinite amplitude is rejected, naming its 1-based record and index."""

    features: np.ndarray   # (count, 2^n_sites) real amplitudes
    labels: np.ndarray     # +1 paramagnetic, -1 ferromagnetic
    ratios: np.ndarray     # h / J per sample
    n_sites: int
    J: float
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        require_finite(self.features, "record", "amplitude")

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


def load_dataset(path) -> TfimDataset:
    header, records = load_jsonl(path)
    if header.get("kind") != "tfim-phase":
        raise ValueError(f"{path}: not a phase dataset file")
    features = np.array([rec["amplitudes"] for rec in records])
    meta = {k: header[k] for k in ("ratio_range", "exclusion") if k in header}
    return TfimDataset(
        features=features,
        labels=np.array([rec["label"] for rec in records], dtype=int),
        ratios=np.array([rec["h_over_j"] for rec in records]),
        n_sites=int(header["n_sites"]),
        J=float(header["J"]),
        seed=int(header["seed"]),
        meta=meta,
    )


def default_dataset_path(directory) -> Path:
    return Path(directory) / "tfim_phase.jsonl"
