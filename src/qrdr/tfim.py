"""Transverse-field Ising chains and the phase-classification dataset.

    H = -J sum_i Z_i Z_{i+1} + h sum_i X_i        (open boundary)

The phase depends on h/J alone, so the chains here take J = 1 as the
energy unit and a field h is the ratio h/J.  Site 0 maps to the most
significant bit of the computational index.  Ground states come from a
matrix-free Lanczos run on the parity sector of the global spin flip,
batched over fields and continued in h: a field starts from the converged
states of its nearest smaller fields (:func:`ground_state`).  The dense
matrix (:func:`build_tfim`) is the reference the tests compare with.  The
dataset pairs each ground state with the phase label of its coupling ratio
(h/J > 1 paramagnetic, labelled +1; h/J < 1 ferromagnetic, labelled -1),
sampling ratios uniformly outside a window around the critical point and
balancing the two classes exactly.  Datasets persist as JSON lines with
full-precision floats.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .dataset import PhiloxStream, require_finite, require_labels
from .linalg import fix_signs


def _validate(n_sites: int, h) -> None:
    if n_sites < 2:
        raise ValueError("need at least 2 sites for a coupling term")
    h = np.ravel(h)
    bad = ~((0 <= h) & (h < np.inf))
    if bad.any():
        raise ValueError(f"field h must be non-negative and finite, got "
                         f"{h[bad][0]}")


def build_tfim(n_sites: int, h: float = 1.0) -> np.ndarray:
    """Dense open-chain Hamiltonian matrix, dimension 2^n_sites."""
    _validate(n_sites, h)
    s = np.arange(2 ** n_sites)
    # z[s, i] = +/-1: the Z eigenvalue of site i (bit n - 1 - i) in state s
    z = 1 - 2 * ((s[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1)
    H = np.zeros((s.size, s.size))
    H[s, s] = -(z[:, :-1] * z[:, 1:]).sum(axis=1)
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
# one block raise the peak RSS of tfim-gen by 30%, 25 keep it level, and 50
# are no faster but cost 2.6 MB more
_BLOCK = 25

# steps between Ritz-residual checks.  A check (an eigvalsh and two solves
# of each running field's tridiagonal matrix) costs about three Lanczos steps
# at 8 sites; checking every 8 steps is 9% faster there but 10% slower at 12
# sites, and the few steps a check can overshoot only tighten the result
_CHECK_EVERY = 6

# residual bound ||H psi - E psi|| relative to (n - 1) + h n >= ||H||
_RESIDUAL_TOL = 1e-12


def _sector(n_sites: int):
    """The chain on the parity-sector basis (|r> + eta |~r>)/sqrt(2), r <
    2^(n-1): the ZZ diagonal, the index each site's flip sends r to, and
    (-1)^popcount(r), the all-minus product state of the sector."""
    half = 2 ** (n_sites - 1)
    r = np.arange(half)
    z = 1 - 2 * ((r[:, None] >> np.arange(n_sites - 1, -1, -1)) & 1)
    diag = -(z[:, :-1] * z[:, 1:]).sum(axis=1)
    # only site 0's flip sets the top bit, and r ^ 2^(n-1) is the complement
    # of r ^ (2^(n-1) - 1): that flip folds back with sign eta
    masks = [half - 1] + [1 << (n_sites - 1 - i) for i in range(1, n_sites)]
    return diag, r ^ np.array(masks)[:, None], z.prod(axis=1)


def _lanczos(diag, flips, eta: int, fields, start, bound):
    """Lowest eigenpairs of diag + h X on the sector, one per field, by one
    Lanczos run with full reorthogonalisation that is batched over fields;
    ``start`` holds each field's unit start vector, or one for all.

    A field stops at the first check where its Ritz residual |beta_k s_k|
    is at most half its ``bound``, s being the lowest eigenvector of its
    tridiagonal matrix T.  A check takes the lowest eigenvalue theta of T
    and then s by two solves of (T - sigma) x = x', from x' = e_0, with
    sigma = theta - bound: T - sigma is positive definite, so only the
    lowest pair can grow, and s_0 > 0 (the Ritz vector overlaps the start
    positively).  The Krylov space closes early (beta = 0) at the size of
    the reflection-even subspace, which a check then catches.  Raises if
    an assembled residual exceeds ``bound``.
    """
    count, dim = fields.size, diag.size

    def apply(V, h):
        G = V[:, flips]
        G[:, 0] *= eta
        return diag * V + h[:, None] * G.sum(axis=1)

    # room for the 18-36 steps of an 8-site chain, doubled when full
    basis = np.empty((count, min(dim, 48), dim))
    basis[:, 0] = start
    alpha, beta = np.zeros((count, dim)), np.zeros((count, dim))
    energy, vectors = np.zeros(count), np.zeros((count, dim))
    live = np.arange(count)   # the field of each row still running
    for k in range(dim):
        q, Q = basis[:, k], basis[:, :k + 1]
        w = apply(q, fields[live])
        alpha[:, k] = np.einsum("bd,bd->b", q, w)
        for _ in range(2):   # Gram-Schmidt against the whole basis, twice
            w -= np.matmul(np.matmul(Q, w[:, :, None]).transpose(0, 2, 1),
                           Q)[:, 0]
        beta[:, k] = np.sqrt(np.einsum("bd,bd->b", w, w))
        if ((k + 1) % _CHECK_EVERY == 0 or k + 1 == dim
                or (beta[:, k] <= bound[live] / 2).any()):
            i = np.arange(k + 1)
            T = np.zeros((live.size, k + 1, k + 1))
            T[:, i, i] = alpha[:, :k + 1]
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = beta[:, :k]
            theta = np.linalg.eigvalsh(T)[:, 0]
            T[:, i, i] -= (theta - bound[live])[:, None]
            s = np.zeros((live.size, k + 1, 1))
            s[:, 0] = 1.0
            for _ in range(2):
                s = np.linalg.solve(T, s)
                s /= np.linalg.norm(s, axis=1, keepdims=True)
            done = np.abs(beta[:, k] * s[:, -1, 0]) <= bound[live] / 2
            if done.any():
                energy[live[done]] = theta[done]
                vectors[live[done]] = np.matmul(s[done].transpose(0, 2, 1),
                                                Q[done])[:, 0]
                # the finished fields leave the run
                live, basis, alpha, beta, w = (
                    a[~done] for a in (live, basis, alpha, beta, w))
        if not live.size or k + 1 == dim:
            break
        if k + 1 == basis.shape[1]:
            basis = np.concatenate([basis, np.empty_like(basis)], axis=1)
        basis[:, k + 1] = w / np.where(beta[:, k] > 0, beta[:, k], 1)[:, None]
    residual = np.linalg.norm(
        apply(vectors, fields) - energy[:, None] * vectors, axis=1)
    if live.size or (residual > bound).any():
        worst = live[0] if live.size else np.argmax(residual / bound)
        raise RuntimeError(f"Lanczos did not converge at h = {fields[worst]}: "
                           f"residual {residual[worst]:.2e} above "
                           f"{bound[worst]:.2e}")
    return energy, vectors


def ground_state(n_sites: int, h) -> GroundState:
    """Ground state of the chain for one field ``h`` or for each field of a
    1-D array, real with a deterministic global sign (the largest
    |amplitude| is positive, :func:`linalg.fix_signs`).

    For h > 0 the ground state is the unique lowest state of parity
    prod_i X_i = (-1)^n_sites, which the result has exactly.  At h = 0 the
    two fully polarised states are exactly degenerate and no unique ground
    state exists, so a zero field raises.

    The fields are solved as a continuation in h.  Sorted, they are dealt
    into B = ceil(count / _BLOCK) strided blocks, block b holding sorted
    fields b, b + B, b + 2B, ...  Block 0 starts from the all-minus product
    state of the sector.  In a later block each field starts from the
    converged state of its neighbour below, in block b - 1, extrapolated
    linearly in h through the next one down, in block b - 2.  A single
    field is one cold-started block.  Results come in the caller's order.
    """
    _validate(n_sites, h)
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
    diag, flips, product = _sector(n_sites)
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    blocks = -(-flat.size // _BLOCK)
    energy = np.empty(flat.size)
    amplitudes = np.empty((flat.size, 2 ** n_sites))
    below = further = None      # the converged states of blocks b-1, b-2
    for b in range(blocks):
        pos = np.arange(b, flat.size, blocks)
        block = ordered[pos]
        if b == 0:
            start = product / np.sqrt(diag.size)
        else:
            start = below[:pos.size]
        if b > 1:
            # the secant through the two converged neighbours below
            h1, h0 = ordered[pos - 1], ordered[pos - 2]
            step = (block - h1) / np.where(h1 > h0, h1 - h0, np.inf)
            start = start + step[:, None] * (start - further[:pos.size])
            start /= np.linalg.norm(start, axis=1, keepdims=True)
        bound = _RESIDUAL_TOL * (n_sites - 1 + block * n_sites)
        e, y = _lanczos(diag, flips, eta, block, start, bound)
        further, below = below, y
        y = fix_signs(y.T).T
        energy[order[pos]] = e
        amplitudes[order[pos]] = np.concatenate([y, eta * y[:, ::-1]],
                                                axis=1) / np.sqrt(2.0)
    if fields.ndim == 0:
        return GroundState(energy=float(energy[0]), amplitudes=amplitudes[0])
    return GroundState(energy=energy, amplitudes=amplitudes)


@dataclass
class TfimDataset:
    """Ground-state amplitudes with phase labels, sorted by ratio h/J, and
    the windows the ratios were drawn from.

    ``n_sites`` must be below 63, so that a record can hold its 2^n_sites
    amplitudes.  Each record holds 2^n_sites finite real amplitudes, a
    finite positive ratio h/J and the +1/-1 label of that ratio; the first
    bad value is rejected, naming its 1-based record (and amplitude).  The
    windows must pass :func:`check_window`.
    """

    features: np.ndarray   # (count, 2^n_sites) real amplitudes
    labels: np.ndarray     # +1 paramagnetic, -1 ferromagnetic
    ratios: np.ndarray     # h / J per sample
    n_sites: int
    seed: int
    ratio_range: list      # [low, high] of every ratio
    exclusion: list        # [low, high] of the critical window left out

    def __post_init__(self):
        self.features = require_finite(self.features, "record", "amplitude")
        _check_sites(self.n_sites, "n_sites")
        if self.features.shape[1] != 2 ** self.n_sites:
            raise ValueError(f"{self.n_sites} sites need {2 ** self.n_sites} "
                             f"amplitudes per record, got "
                             f"{self.features.shape[1]}")
        self.labels = require_labels(self.labels, self.count, "record")
        self.ratios = np.asarray(self.ratios, dtype=float)
        bad = np.flatnonzero(~((0 < self.ratios) & (self.ratios < np.inf)))
        if bad.size:
            raise ValueError(f"record {bad[0] + 1}: h/J = {self.ratios[bad[0]]}"
                             " is not a finite positive number")
        bad = np.flatnonzero(self.labels != np.where(self.ratios > 1, 1, -1))
        if bad.size:
            raise ValueError(f"record {bad[0] + 1}: label "
                             f"{self.labels[bad[0]]:+d} contradicts h/J = "
                             f"{self.ratios[bad[0]]} (+1 exactly when h/J > 1)")
        check_window(self.ratio_range, self.exclusion)

    @property
    def count(self) -> int:
        return self.features.shape[0]


# no list is longer than sys.maxsize < 2^63, so no record holds the
# 2^n_sites amplitudes of 63 or more sites
_SITE_LIMIT = sys.maxsize.bit_length()


def _check_sites(n_sites: int, where: str) -> None:
    """Raise ``ValueError`` naming ``where`` unless some record can hold
    the 2^n_sites amplitudes, before anything computes that power."""
    if not 0 <= n_sites < _SITE_LIMIT:
        raise ValueError(f"{where} {n_sites} is outside 0 .. "
                         f"{_SITE_LIMIT - 1}: no record holds 2^n_sites "
                         "amplitudes")


def check_window(ratio_range, exclusion) -> None:
    """Raise ``ValueError`` unless the sampling windows are in order."""
    (lo, hi), (ex_lo, ex_hi) = ratio_range, exclusion
    if not 0 < lo < ex_lo < 1 < ex_hi < hi:
        raise ValueError(
            "need 0 < ratio_range[0] < exclusion[0] < 1 < exclusion[1] < "
            f"ratio_range[1], got {list(ratio_range)} and {list(exclusion)}")


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
    check_window(ratio_range, exclusion)
    rng = PhiloxStream(seed, 3)
    half = count // 2
    ratios = np.concatenate([
        rng.uniform(ratio_range[0], exclusion[0], half),
        rng.uniform(exclusion[1], ratio_range[1], half),
    ])
    ratios.sort()
    return TfimDataset(features=ground_state(n_sites, ratios).amplitudes,
                       labels=np.where(ratios > 1.0, 1, -1), ratios=ratios,
                       n_sites=n_sites, seed=seed,
                       ratio_range=list(ratio_range), exclusion=list(exclusion))


def save_dataset(path, ds: TfimDataset) -> None:
    """Write the phase file: a header line, then one sorted-key line per
    record, with floats in full precision.  ``"J": 1.0`` states the energy
    unit.  Records are written one at a time: building the whole text, or
    a tuple of the records, first costs 1.4-1.8 MB more peak memory."""
    header = {"kind": "tfim-phase", "n_sites": ds.n_sites, "J": 1.0,
              "boundary": "open", "seed": ds.seed, "count": ds.count,
              "ratio_range": ds.ratio_range, "exclusion": ds.exclusion}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ratio, label, row in zip(ds.ratios, ds.labels, ds.features):
            record = {"h_over_j": float(ratio), "label": int(label),
                      "amplitudes": row.tolist()}
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _fields(obj, keys, where: str) -> list:
    # the values of ``keys`` in one JSON object of a phase file
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    return [obj[key] for key in keys]


# the one rule for a number read from a phase file: an int or a float as
# JSON decodes them (true and false decode as bool, which is neither)
_NUMBER = {int, float}


def _number(value, where: str):
    if type(value) not in _NUMBER:
        raise ValueError(f"{where} {value!r} is not a number")
    return value


def _objects(fh):
    # the JSON value of each non-blank line; a line that is not JSON is
    # named by its line in the file and by the header or its 1-based record
    record = 0
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                where = f"record {record}" if record else "header"
                raise ValueError(f"{where} (line {lineno}): not valid JSON: "
                                 f"{exc.msg} at column {exc.colno}") from None
            yield value
            record += 1


def load_dataset(path) -> TfimDataset:
    """Read a file written by :func:`save_dataset`, one line at a time.

    Every non-blank line must be JSON.  The header's ``n_sites``, ``seed``
    and ``count`` must be JSON integers, ``n_sites`` below 63, its ``J``
    1.0 and its windows pairs of numbers; each of the ``count`` records
    holds a number ``h_over_j``, a number ``label`` and 2^n_sites number
    ``amplitudes``.  A line that is not JSON, a missing field or a bad
    value raises ``ValueError`` naming the header field, or the 1-based
    record (and amplitude), as do the checks of :class:`TfimDataset`; a
    line that is not JSON is named by its file line too.
    """
    keys = ("n_sites", "seed", "count", "J", "ratio_range", "exclusion")
    with open(path, "r", encoding="ascii") as fh:
        lines = _objects(fh)
        header = next(lines, None)
        if not isinstance(header, dict) or header.get("kind") != "tfim-phase":
            raise ValueError(f"{path}: " + ("empty file" if header is None
                                            else "not a phase dataset file"))
        values = _fields(header, keys, "header")
        n_sites, seed, count, J, *windows = values
        for key, value in zip(keys[:3], values):
            if type(value) is not int:
                raise ValueError(f"header: {key} {value!r} is not an integer")
        _check_sites(n_sites, "header: n_sites")
        if _number(J, "header: J") != 1.0:
            raise ValueError(f"header: J {J!r} is not 1.0, the energy unit")
        for key, window in zip(keys[4:], windows):
            if not (type(window) is list and len(window) == 2
                    and _NUMBER.issuperset(map(type, window))):
                raise ValueError(f"header: {key} {window!r} is not two numbers")
        width, amplitudes, labels, ratios = 2 ** n_sites, [], [], []
        for i, record in enumerate(lines, start=1):
            row, label, ratio = _fields(
                record, ("amplitudes", "label", "h_over_j"), f"record {i}")
            ratios.append(_number(ratio, f"record {i}: h/J ="))
            labels.append(_number(label, f"record {i}: label"))
            if type(row) is not list or len(row) != width:
                raise ValueError(f"record {i}: {n_sites} sites need "
                                 f"{width} amplitudes per record, got "
                                 f"{len(row) if type(row) is list else row!r}")
            if not _NUMBER.issuperset(map(type, row)):
                for j, value in enumerate(row, start=1):
                    _number(value, f"record {i}, amplitude {j}:")
            amplitudes.append(row)
    if count != len(amplitudes):
        raise ValueError(f"{path}: header count {count} but "
                         f"{len(amplitudes)} records")
    return TfimDataset(features=amplitudes, labels=labels, ratios=ratios,
                       n_sites=n_sites, seed=seed, ratio_range=windows[0],
                       exclusion=windows[1])
