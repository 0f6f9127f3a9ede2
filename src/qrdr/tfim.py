"""Transverse-field Ising chains and the phase-classification dataset.

    H = -J sum_i Z_i Z_{i+1} + h sum_i X_i        (open boundary)

Site 0 maps to the most significant bit of the computational index.  Ground
states come from a matrix-free Lanczos run on the parity sector of the
global spin flip, batched over fields (:func:`ground_state`); the dense
matrix (:func:`build_tfim`) is the reference the tests compare with.  The
dataset pairs each ground state with the phase label of its coupling ratio
(h/J > 1 paramagnetic, labelled +1; h/J < 1 ferromagnetic, labelled -1),
sampling ratios uniformly outside a window around the critical point and
balancing the two classes exactly.  Datasets persist as JSON lines with
full-precision floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import (load_jsonl, make_rng, require_finite, require_labels,
                      save_jsonl)


def _validate(n_sites: int, J: float, h) -> None:
    if n_sites < 2:
        raise ValueError("need at least 2 sites for a coupling term")
    if not 0 < J < np.inf:
        raise ValueError(f"coupling J must be positive and finite, got {J}")
    h = np.ravel(h)
    bad = ~((0 <= h) & (h < np.inf))
    if bad.any():
        raise ValueError(f"field h must be non-negative and finite, got "
                         f"{h[bad][0]}")


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
    """Lowest eigenpair of one chain, or of one chain per field."""

    energy: float | np.ndarray        # one energy per field
    amplitudes: np.ndarray            # (2^n_sites,) or (fields, 2^n_sites)


# fields solved together in one Lanczos run.  A block's Krylov basis holds
# block x steps x 2^(n-1) floats; at 8 sites all 200 fields of a dataset in
# one block raise the peak RSS of tfim-gen by 30%, 25 keep it level
_BLOCK = 25

# steps between Ritz-residual checks.  Each check eigendecomposes every
# field's tridiagonal matrix and costs more than a Lanczos step: checking
# every step takes 2.5 times as long at 8 sites, and the few steps a check
# can overshoot only tighten the result
_CHECK_EVERY = 6

# residual bound ||H psi - E psi|| relative to J (n - 1) + h n >= ||H||
_RESIDUAL_TOL = 1e-12


def _sector(n_sites: int, J: float):
    """The chain on the parity-sector basis (|r> + eta |~r>)/sqrt(2), r <
    2^(n-1): the ZZ diagonal, the index each site's flip sends r to, and
    (-1)^popcount(r), the all-minus product state of the sector."""
    half = 2 ** (n_sites - 1)
    r = np.arange(half)
    z = 1 - 2 * ((r[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1)
    diag = -J * (z[:, :-1] * z[:, 1:]).sum(axis=1)
    # only site 0's flip sets the top bit, and r ^ 2^(n-1) is the complement
    # of r ^ (2^(n-1) - 1): that flip folds back with sign eta
    masks = [half - 1] + [1 << (n_sites - 1 - i) for i in range(1, n_sites)]
    return diag, r ^ np.array(masks)[:, None], z.prod(axis=1)


def _lanczos(diag, flips, start, eta: int, fields, bound):
    """Lowest eigenpairs of diag + h X on the sector, one per field, by one
    Lanczos run with full reorthogonalisation that is batched over fields.

    A field stops at the first check where its Ritz residual
    |beta_k s_k0| is at most half its ``bound``; the Krylov space closes
    early (beta = 0) at the size of the reflection-even subspace, which a
    check then catches.  Raises if an assembled residual exceeds ``bound``.
    """
    count, dim = fields.size, diag.size

    def apply(V):
        G = V[:, flips]
        G[:, 0] *= eta
        return diag * V + fields[:, None] * G.sum(axis=1)

    # room for the 30-40 steps of an 8-site chain, doubled when full
    basis = np.empty((count, min(dim, 48), dim))
    basis[:, 0] = start / np.sqrt(dim)
    alpha, beta = np.zeros((count, dim)), np.zeros((count, dim))
    energy, vectors = np.zeros(count), np.zeros((count, dim))
    running = np.ones(count, dtype=bool)
    for k in range(dim):
        q, Q = basis[:, k], basis[:, :k + 1]
        w = apply(q)
        alpha[:, k] = np.einsum("bd,bd->b", q, w)
        for _ in range(2):   # Gram-Schmidt against the whole basis, twice
            w -= np.matmul(np.matmul(Q, w[:, :, None]).transpose(0, 2, 1),
                           Q)[:, 0]
        beta[:, k] = np.sqrt(np.einsum("bd,bd->b", w, w))
        if ((k + 1) % _CHECK_EVERY == 0 or k + 1 == dim
                or (beta[running, k] <= bound[running] / 2).any()):
            idx = np.flatnonzero(running)
            i = np.arange(k + 1)
            T = np.zeros((idx.size, k + 1, k + 1))
            T[:, i, i] = alpha[idx, :k + 1]
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = beta[idx, :k]
            theta, S = np.linalg.eigh(T)
            done = np.abs(beta[idx, k] * S[:, -1, 0]) <= bound[idx] / 2
            idx = idx[done]
            energy[idx] = theta[done, 0]
            vectors[idx] = np.matmul(S[done, None, :, 0],
                                     basis[idx, :k + 1])[:, 0]
            running[idx] = False
        if not running.any() or k + 1 == dim:
            break
        if k + 1 == basis.shape[1]:
            basis = np.concatenate([basis, np.empty_like(basis)], axis=1)
        basis[:, k + 1] = w / np.where(beta[:, k] > 0, beta[:, k], 1)[:, None]
    residual = np.linalg.norm(apply(vectors) - energy[:, None] * vectors,
                              axis=1)
    if running.any() or (residual > bound).any():
        worst = np.argmax(np.where(running, np.inf, residual / bound))
        raise RuntimeError(f"Lanczos did not converge at h = {fields[worst]}: "
                           f"residual {residual[worst]:.2e} above "
                           f"{bound[worst]:.2e}")
    return energy, vectors


def ground_state(n_sites: int, J: float, h) -> GroundState:
    """Ground state of the chain for one field ``h`` or for each field of a
    1-D array, real with a deterministic global sign (the largest
    |amplitude| is positive).

    For h > 0 the ground state is the unique lowest state of parity
    prod_i X_i = (-1)^n_sites, which the result has exactly.  At h = 0 the
    two fully polarised states are exactly degenerate and no unique ground
    state exists, so a zero field raises.
    """
    _validate(n_sites, J, h)
    fields = np.asarray(h, dtype=float)
    if fields.ndim > 1:
        raise ValueError(f"h must be one field or a 1-D array of fields, "
                         f"got shape {fields.shape}")
    flat = fields.ravel()
    if (flat == 0).any():
        raise ValueError(
            f"h = 0 (field {np.flatnonzero(flat == 0)[0]}): ground state "
            "exactly doubly degenerate, no unique phase representative exists"
        )
    eta = (-1) ** n_sites
    diag, flips, start = _sector(n_sites, J)
    energy = np.empty(flat.size)
    amplitudes = np.empty((flat.size, 2 ** n_sites))
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo:lo + _BLOCK]
        bound = _RESIDUAL_TOL * (J * (n_sites - 1) + block * n_sites)
        e, y = _lanczos(diag, flips, start, eta, block, bound)
        peak = y[np.arange(block.size), np.argmax(np.abs(y), axis=1)]
        y *= np.sign(peak)[:, None]
        energy[lo:lo + _BLOCK] = e
        amplitudes[lo:lo + _BLOCK] = np.concatenate([y, eta * y[:, ::-1]],
                                                    axis=1) / np.sqrt(2.0)
    if fields.ndim == 0:
        return GroundState(energy=float(energy[0]), amplitudes=amplitudes[0])
    return GroundState(energy=energy, amplitudes=amplitudes)


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
                     ratio_range=(0.2, 1.8),
                     exclusion=(0.95, 1.05)) -> TfimDataset:
    """Sample ground states on both sides of the transition, at J = 1: the
    phase depends on h/J alone, so each field is its ratio.

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
    features = ground_state(n_sites, 1.0, ratios).amplitudes
    labels = np.where(ratios > 1.0, 1, -1)
    return TfimDataset(
        features=features,
        labels=labels,
        ratios=ratios,
        n_sites=n_sites,
        J=1.0,
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
    record, as do a record count other than the header's ``count`` and the
    checks of :class:`TfimDataset`.
    """
    header, records = load_jsonl(path)
    if not isinstance(header, dict) or header.get("kind") != "tfim-phase":
        raise ValueError(f"{path}: not a phase dataset file")
    if not records:
        raise ValueError(f"{path}: no records")
    n_sites, J, seed, count = _fields(
        header, ("n_sites", "J", "seed", "count"), "header")
    if count != len(records):
        raise ValueError(f"{path}: header count {count!r} but "
                         f"{len(records)} records")
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
