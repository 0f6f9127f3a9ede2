"""Resonant dimensionality-reduction engine.

Simulates the composite Hamiltonian

    H = |0><0| (x) (|0..0><0..0| - I) (x) I
      + |1><1| (x) (H_lam (x) I + I (x) A)
      + (c*pi/2) sigma_y (x) B (x) I

acting on probe (1 qubit), component register (r qubits) and data register
(n qubits), with the sample register factored out as a trailing axis.  Here
A = X^T X is the data second-moment matrix, H_lam = diag(-lam_1..-lam_R,
+lam_1, ...) places one resonance per target component, and B = sqrt(2^r)
times the r-fold Hadamard (entries +/-1, first row all ones) spreads the
component register over all basis states.  Evolving for t = 1/c and
post-selecting the probe on |1> transfers amplitude into the top-R
principal subspace with error epsilon = O(c^2 / delta_min^2).

Two evolution paths are provided.  ``evolve_full`` exponentiates the dense
2^(1+r+n) Hamiltonian.  ``evolve_blockwise`` exploits that sectors with a
fixed data-register eigenvector |v_k> are invariant, reducing the problem
to 2^n independent blocks of dimension 2^(r+1) that differ only by lam_k
on the probe-|1> diagonal.  The blocks are built as one stacked array and
diagonalised in one stacked eigensolve (:meth:`QrdrHamiltonian.sector_eig`);
a reduction stacks only the sectors its data populates.  Both paths agree
to rounding error, and the blockwise one is what makes realistic instances
cheap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import (SpectralDecomposition, evolve_spectral, hermitian_eig,
                     kron_all)
from .pca import PcaModel, fit_pca, target_state

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# post-selection below this probability is reported as a failure
MIN_POSTSELECT_PROB = 1e-12

# reduce_rows evolves at c = delta_min / REDUCTION_C_DIVISOR, and accepts a
# rank only if delta_min >= REDUCTION_GAP_RTOL * lam_1.  The evolution time
# is then t = 1/c <= 100 / (sqrt(eps) lam_1), so eigenvalue rounding
# (about eps * lam_1) dephases the sectors by at most 100 sqrt(eps) ~ 1.5e-6.
REDUCTION_C_DIVISOR = 100.0
REDUCTION_GAP_RTOL = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit layout (probe, component register, data register).

    Basis-state index: ``(p * 2^r + j) * 2^n + d``.  The sample register is
    logical (ceil(log2 M) qubits) but simulated as a plain trailing axis of
    size M, since no operator ever mixes samples.
    """

    r_qubits: int
    n_qubits: int

    @property
    def dim_r(self) -> int:
        return 2 ** self.r_qubits

    @property
    def dim_n(self) -> int:
        return 2 ** self.n_qubits

    @property
    def dim(self) -> int:
        return 2 * self.dim_r * self.dim_n

    def index(self, p: int, j: int, d: int) -> int:
        return (p * self.dim_r + j) * self.dim_n + d

    @staticmethod
    def for_sizes(n_features: int, rank: int, r_qubits: int | None = None,
                  n_qubits: int | None = None) -> "RegisterLayout":
        r_min = max(1, math.ceil(math.log2(rank))) if rank > 1 else 1
        n_min = max(1, math.ceil(math.log2(n_features))) if n_features > 1 else 1
        r = r_min if r_qubits is None else r_qubits
        n = n_min if n_qubits is None else n_qubits
        if r < r_min or n < n_min:
            raise ValueError(
                f"registers too small: need r >= {r_min}, n >= {n_min}"
            )
        return RegisterLayout(r_qubits=r, n_qubits=n)


def spread_operator(r_qubits: int) -> np.ndarray:
    """B = sqrt(2^r) H^(x r): entries +/-1, first row and column all +1."""
    return kron_all([np.array([[1.0, 1.0], [1.0, -1.0]])] * r_qubits)


def encode_dataset_state(X: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Amplitude-encode all samples: entry (d, i) = X[i, d] / ||X||_F.

    Returns the joint (data register x sample) vector of length 2^n * M;
    feature indices beyond the data width are zero-padded.
    """
    X = np.asarray(X, dtype=float)
    m, n_feat = X.shape
    if n_feat > layout.dim_n:
        raise ValueError(f"{n_feat} features exceed data register ({layout.dim_n})")
    f = np.linalg.norm(X)
    if f == 0:
        raise ValueError("dataset has zero Frobenius norm")
    out = np.zeros(layout.dim_n * m)
    out[: n_feat * m] = (X.T / f).reshape(-1)
    return out


@dataclass
class QrdrHamiltonian:
    """Assembled reduction Hamiltonian for one (dataset, rank, c) instance.

    Stores the ingredients (PCA model, padded data spectrum/eigenbasis,
    component-register diagonal, coupling); the dense matrix is materialised
    lazily since the blockwise path never needs it.
    """

    model: PcaModel
    layout: RegisterLayout
    c: float
    hdiag: np.ndarray            # component-register diagonal, length 2^r
    data_eigenvalues: np.ndarray  # padded data spectrum, length 2^n
    data_vectors: np.ndarray      # padded eigenbasis, (2^n, 2^n)

    @property
    def t_resonant(self) -> float:
        return 1.0 / self.c

    @property
    def delta_min(self) -> float:
        return self.model.delta_min

    def sector_eig(self, count: int | None = None) -> SpectralDecomposition:
        """Eigensystems of the first ``count`` sector blocks (all 2^n by
        default), from one stacked eigensolve.

        Block k is the Hamiltonian restricted to the invariant sector of
        data eigenvector |v_k>, ordered (p=0 block, p=1 block), dimension
        2^(r+1); blocks differ only by lam_k on the p=1 diagonal.
        """
        dim_r = self.layout.dim_r
        lam = self.data_eigenvalues[:count]
        coupling = (self.c * np.pi / 2.0) * spread_operator(self.layout.r_qubits)
        idx = np.arange(dim_r)
        blocks = np.zeros((lam.size, 2 * dim_r, 2 * dim_r), dtype=complex)
        blocks[:, idx[1:], idx[1:]] = -1.0
        blocks[:, dim_r + idx, dim_r + idx] = self.hdiag + lam[:, None]
        blocks[:, :dim_r, dim_r:] = -1.0j * coupling
        blocks[:, dim_r:, :dim_r] = 1.0j * coupling
        return hermitian_eig(blocks, check=False)

    def dense(self) -> np.ndarray:
        """Full 2^(1+r+n) matrix (for reference evolution and checks)."""
        dim_r, dim_n = self.layout.dim_r, self.layout.dim_n
        eye_n = np.eye(dim_n)
        top = np.zeros(dim_r)
        top[1:] = -1.0
        A_pad = (self.data_vectors * self.data_eigenvalues) @ self.data_vectors.T
        H = np.zeros((self.layout.dim, self.layout.dim), dtype=complex)
        H += kron_all([np.diag([1.0, 0.0]), np.diag(top), eye_n])
        H += kron_all([np.diag([0.0, 1.0]), np.diag(self.hdiag), eye_n])
        H += kron_all([np.diag([0.0, 1.0]), np.eye(dim_r), A_pad])
        H += (self.c * np.pi / 2.0) * kron_all(
            [SIGMA_Y, spread_operator(self.layout.r_qubits), eye_n]
        )
        return H

    @cached_property
    def _dense_eig(self) -> SpectralDecomposition:
        return hermitian_eig(self.dense(), check=False)


def build_hamiltonian(model: PcaModel, c: float,
                      layout: RegisterLayout | None = None) -> QrdrHamiltonian:
    """Assemble the reduction Hamiltonian, enforcing admissibility of c.

    Rejects couplings at or beyond the minimal spectral gap (the resonance
    structure would be lost) and spectra degenerate across the R-boundary;
    warns when c exceeds delta_min / 10, where the O(c^2) error law starts
    to visibly bend.
    """
    if c <= 0:
        raise ValueError(f"coupling c must be positive, got {c}")
    if model.boundary_degenerate:
        lam = model.eigenvalues
        raise ValueError(
            "spectrum degenerate at the rank boundary: "
            f"lam[{model.rank}] = {lam[model.rank - 1]:.6e} vs "
            f"lam[{model.rank + 1}] = {lam[model.rank]:.6e}; the top-R "
            "subspace is not well defined"
        )
    delta = model.delta_min
    if c >= delta:
        raise ValueError(
            f"coupling c = {c:.3e} is not admissible: it reaches the minimal "
            f"spectral gap delta_min = {delta:.3e}, so off-resonant levels "
            "are no longer suppressed; reduce c or reduce the rank"
        )
    if c > delta / 10.0:
        warnings.warn(
            f"coupling c = {c:.3e} exceeds delta_min/10 = {delta / 10:.3e}; "
            "the quadratic error law degrades in this regime",
            stacklevel=2,
        )
    if layout is None:
        layout = RegisterLayout.for_sizes(model.n_features, model.rank)
    lam = model.eigenvalues
    hdiag = np.full(layout.dim_r, lam[0])
    hdiag[: model.rank] = -lam[: model.rank]
    data_eigenvalues = np.zeros(layout.dim_n)
    data_eigenvalues[: model.n_features] = lam
    data_vectors = np.eye(layout.dim_n)
    data_vectors[: model.n_features, : model.n_features] = model.components
    return QrdrHamiltonian(
        model=model,
        layout=layout,
        c=c,
        hdiag=hdiag,
        data_eigenvalues=data_eigenvalues,
        data_vectors=data_vectors,
    )


def _as_columns(psi: np.ndarray):
    psi = np.asarray(psi)
    if psi.ndim == 1:
        return psi[:, None], True
    return psi, False


def evolve_full(h: QrdrHamiltonian, psi: np.ndarray,
                t: float | None = None) -> np.ndarray:
    """Reference evolution through the dense Hamiltonian's eigensystem."""
    t = h.t_resonant if t is None else t
    return evolve_spectral(h._dense_eig, t, psi)


def evolve_blockwise(h: QrdrHamiltonian, psi: np.ndarray,
                     t: float | None = None) -> np.ndarray:
    """Evolution through the invariant data-eigenvector sectors.

    Rotates the data register into the eigenbasis of A, evolves all 2^n
    sectors at once with their stacked 2^(r+1)-dimensional blocks, and
    rotates back.
    """
    t = h.t_resonant if t is None else t
    psi2, squeeze = _as_columns(psi)
    dim_r, dim_n = h.layout.dim_r, h.layout.dim_n
    # (p, j, d, i) -> (k, (p, j), i): data axis in the eigenbasis, leading
    work = psi2.reshape(2 * dim_r, dim_n, -1).swapaxes(0, 1)
    work = np.tensordot(h.data_vectors, work, axes=(0, 0))
    work = evolve_spectral(h.sector_eig(), t, work)
    out = np.tensordot(h.data_vectors, work, axes=(1, 0)).swapaxes(0, 1)
    out = out.reshape(psi2.shape)
    return out[:, 0] if squeeze else out


def postselect_probe(psi: np.ndarray, layout: RegisterLayout):
    """Measure the probe, keep |1>: returns (probability, collapsed state).

    The collapsed state lives on (component register x data register), with
    any sample axis preserved, and is renormalised.  Raises when essentially
    no amplitude sits in the probe-|1> branch.
    """
    psi2, squeeze = _as_columns(psi)
    half = layout.dim_r * layout.dim_n
    if psi2.shape[0] != 2 * half:
        raise ValueError(f"state dimension {psi2.shape[0]} does not match layout")
    total = float(np.sum(np.abs(psi2) ** 2))
    branch = psi2[half:]
    prob = float(np.sum(np.abs(branch) ** 2) / total)
    if prob < MIN_POSTSELECT_PROB:
        raise ValueError(
            f"post-selection probability {prob:.3e} is essentially zero"
        )
    collapsed = branch / math.sqrt(prob * total)
    return prob, (collapsed[:, 0] if squeeze else collapsed)


def _householder_apply(block: np.ndarray, v_pad: np.ndarray) -> np.ndarray:
    # reflection W with W v = e0, W e0 = v, applied as two rank-1 updates
    u = v_pad.copy()
    u[0] -= 1.0
    nrm2 = float(u @ u)
    if nrm2 < 1e-24:
        return block
    return block - np.outer(u, (2.0 / nrm2) * (u @ block))


def disentangle(psi: np.ndarray, h: QrdrHamiltonian) -> np.ndarray:
    """Apply the correlation-removing unitary D = sum_k |k><k| (x) W_k.

    For each resonant component k < R, W_k is the (real, symmetric)
    Householder reflection exchanging the eigenvector |v_k> with |0..0> on
    the data register; the remaining component indices act as identity.
    Perfectly transferred amplitude therefore ends on data = |0..0>.
    """
    psi2, squeeze = _as_columns(psi)
    dim_r, dim_n = h.layout.dim_r, h.layout.dim_n
    m = psi2.shape[1]
    work = psi2.reshape(dim_r, dim_n, m).copy()
    for k in range(h.model.rank):
        work[k] = _householder_apply(work[k], h.data_vectors[:, k])
    out = work.reshape(psi2.shape)
    return out[:, 0] if squeeze else out


@dataclass
class QrdrOutcome:
    """Result of one end-to-end reduction run."""

    rank: int
    c: float
    layout: RegisterLayout
    success_probability: float
    ideal_probability: float      # top-R variance fraction
    epsilon: float
    fidelity: float
    residual_weight: float        # post-selected weight off data |0..0>
    delta_min: float
    reduced_state: np.ndarray     # (component x sample), unit norm
    target: np.ndarray            # ideal reduced state, same layout

    def to_metrics(self) -> dict:
        return {
            "rank": self.rank,
            "c": self.c,
            "success_probability": self.success_probability,
            "ideal_probability": self.ideal_probability,
            "epsilon": self.epsilon,
            "fidelity": self.fidelity,
            "residual_weight": self.residual_weight,
            "delta_min": self.delta_min,
        }


def _finish_outcome(h: QrdrHamiltonian, X: np.ndarray, prob: float,
                    on_zero: np.ndarray) -> QrdrOutcome:
    # on_zero: post-selected, disentangled amplitudes on data |0..0>, (j, i)
    on_zero = on_zero.reshape(-1)
    target = target_state(X, h.model, r_qubits=h.layout.r_qubits)
    overlap = np.vdot(target, on_zero)
    epsilon = float(1.0 - np.abs(overlap) ** 2)
    weight = float(np.sum(np.abs(on_zero) ** 2))
    reduced = on_zero / math.sqrt(weight) if weight > 0 else on_zero
    return QrdrOutcome(
        rank=h.model.rank,
        c=h.c,
        layout=h.layout,
        success_probability=prob,
        ideal_probability=h.model.variance_fraction(),
        epsilon=epsilon,
        fidelity=1.0 - epsilon,
        residual_weight=float(1.0 - weight),
        delta_min=h.delta_min,
        reduced_state=reduced,
        target=target,
    )


def _run_full(h: QrdrHamiltonian, X: np.ndarray) -> QrdrOutcome:
    """Dense reference for :func:`_run_blockwise`: the whole register is
    evolved, post-selected and disentangled."""
    layout = h.layout
    m = X.shape[0]
    encoded = encode_dataset_state(X, layout).reshape(layout.dim_n, m)
    psi0 = np.zeros((layout.dim, m))
    psi0.reshape(2, layout.dim_r, layout.dim_n, m)[0, 0] = encoded
    psi1 = evolve_full(h, psi0)
    prob, collapsed = postselect_probe(psi1, layout)
    cleaned = disentangle(collapsed, h)
    on_zero = cleaned.reshape(layout.dim_r, layout.dim_n, m)[:, 0, :]
    return _finish_outcome(h, X, prob, on_zero)


def _run_blockwise(h: QrdrHamiltonian, X: np.ndarray) -> QrdrOutcome:
    """Sector-resolved fast path.

    The initial state only populates sector k with weight |X v_k|^2, and
    within each sector the dynamics acts on the (probe, component) factor
    alone.  Post-selection and disentangling are evaluated directly from
    the sector amplitudes: <0..0| W_j |v_k> = v_j . v_k collapses to a
    Kronecker delta for resonant j, k, and to the leading eigenvector
    entries otherwise.
    """
    X = np.asarray(X, dtype=float)
    m, n_feat = X.shape
    dim_r, rank = h.layout.dim_r, h.model.rank
    f = np.linalg.norm(X)
    if f == 0:
        raise ValueError("dataset has zero Frobenius norm")
    # sector amplitudes of the initial state: z[:, k] over samples
    z = (X @ h.data_vectors[:n_feat, :n_feat]) / f
    e00 = np.eye(2 * dim_r)[0]
    # w[:, k] = exp(-i H_k / c) |p=0, j=0>, restricted to sectors that carry
    # amplitude (k < n_feat; padding sectors start and stay empty).  C order
    # fixes how the products below round, so reports stay byte-stable.
    w = np.ascontiguousarray(
        evolve_spectral(h.sector_eig(n_feat), h.t_resonant, e00).T)
    upper = w[dim_r:, :]                       # probe |1> amplitudes, (j, k)
    z_norm2 = np.sum(z ** 2, axis=0)           # ||z_k||^2, sums to 1
    prob = float(np.sum(np.abs(upper) ** 2 @ z_norm2))
    if prob < MIN_POSTSELECT_PROB:
        raise ValueError(
            f"post-selection probability {prob:.3e} is essentially zero"
        )
    scale = 1.0 / math.sqrt(prob)
    # amplitudes on data |0..0> after disentangling, per component index j:
    #   j < rank:  sum_k upper[j, k] <e0|W_j|v_k> z[i, k] = upper[j, j] z[i, j]
    #   j >= rank: identity on the data register, <e0|v_k> = v_k[0]
    on_zero = np.zeros((dim_r, m), dtype=complex)
    on_zero[:rank] = (scale * np.diagonal(upper)[:rank, None]) * z[:, :rank].T
    lead = h.data_vectors[0, :n_feat]          # first entry of each v_k
    on_zero[rank:] = scale * (upper[rank:] @ (z * lead).T)
    return _finish_outcome(h, X, prob, on_zero)


def run_qrdr(X: np.ndarray, rank: int, c: float, *,
             r_qubits: int | None = None,
             n_qubits: int | None = None) -> QrdrOutcome:
    """End-to-end reduction of a dataset: fit, evolve, post-select, compare.

    Returns a :class:`QrdrOutcome` holding the success probability, the
    infidelity epsilon against the ideal top-R reduced state, and the
    normalised reduced state itself.  The evolution takes the blockwise
    path; ``_run_full`` is its dense reference.
    """
    X = np.asarray(X, dtype=float)
    model = fit_pca(X, rank)
    layout = RegisterLayout.for_sizes(model.n_features, rank,
                                      r_qubits=r_qubits, n_qubits=n_qubits)
    return _run_blockwise(build_hamiltonian(model, c, layout=layout), X)


def admissible_rank(model: PcaModel, max_rank: int) -> int:
    """Largest rank R <= max_rank that the reduction can target reliably.

    R must be accepted by :func:`build_hamiltonian` (no degeneracy across
    the R-boundary) and its protecting gap must satisfy
    delta_min(R) >= REDUCTION_GAP_RTOL * lam_1.  For data of low numerical
    rank this stops at the numerical rank: the components beyond it form an
    arbitrary basis of a numerically null space.
    """
    floor = REDUCTION_GAP_RTOL * float(model.eigenvalues[0])
    for rank in range(min(max_rank, model.n_features), 0, -1):
        trial = replace(model, rank=rank)
        if not trial.boundary_degenerate and trial.delta_min >= floor:
            return rank
    raise ValueError(
        f"no rank <= {max_rank} has a protecting gap >= {floor:.3e}; "
        "the spectrum is degenerate at the top"
    )


def sample_rows(state: np.ndarray, m: int) -> np.ndarray:
    """Split a joint (component x sample) state into unit per-sample rows.

    Row i is the component-register state conditioned on sample i.
    """
    rows = np.asarray(state).reshape(-1, m).T
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise ValueError(f"sample {int(np.argmin(norms))} has no reduced amplitude")
    return rows / norms[:, None]


def reduce_rows(X: np.ndarray, r_qubits: int):
    """Reduce every sample into an r_qubits component register.

    This is the entry point for downstream classifiers.  The rank is the
    :func:`admissible_rank` of X up to 2^r_qubits; register indices at and
    beyond it hold only leakage, which epsilon counts.  The coupling is
    c = delta_min / REDUCTION_C_DIVISOR, and the evolution takes the
    blockwise path.  Returns ``(rows, outcome)``.
    ``rows[i]`` is the simulator's unit-norm reduced state of sample i.  It
    is complex, because the evolution leaves small relative phases.
    ``sample_rows(outcome.target, M)`` gives the ideal classical
    counterpart.
    """
    X = np.asarray(X, dtype=float)
    model = fit_pca(X, 1)
    rank = admissible_rank(model, 2 ** r_qubits)
    c = replace(model, rank=rank).delta_min / REDUCTION_C_DIVISOR
    outcome = run_qrdr(X, rank, c, r_qubits=r_qubits)
    return sample_rows(outcome.reduced_state, X.shape[0]), outcome
