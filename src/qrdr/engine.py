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
principal subspace with error epsilon = O(c^2 / gap^2).  The protecting
gap is min(delta_min, 2^-r): delta_min(R) separates the target levels in
the data spectrum, and the probe-|0> register puts level 0 at energy 0 and
the other 2^r - 1 levels at -1, all tied to each resonant level by the
spread coupling.

A reduction reads fit -> build -> run: :func:`pca.fit_pca` eigendecomposes
A once per dataset, :func:`build_hamiltonian` is the only place where the
rank R and the coupling c meet that spectrum, and :func:`run_qrdr` evolves
the data the model was fitted on under the built Hamiltonian.

Two evolution paths are provided.  ``evolve_full`` exponentiates the dense
2^(1+r+n) Hamiltonian.  ``evolve_blockwise`` exploits that sectors with a
fixed data-register eigenvector |v_k> are invariant: their blocks
[[D0, -i g B], [i g B, D1]] differ only by lam_k in D1.  The exact
similarities diag(1, i) between the probe halves and W = B / sqrt(2^r) on
the probe-|0> half make each block real, with coupling gamma I
(gamma = g sqrt(2^r)) and u u^T - I in place of D0 = diag(0, -1, ..., -1)
(u = W e_0 = 2^(-r/2) (1, ..., 1)); all are diagonalised in eigensolves
of at most SECTOR_STACK_BYTES (:meth:`QrdrHamiltonian.sector_stacks`),
with the bits of one stack, as ``eigh`` and the stacked products treat
each block on its own.  A reduction stacks only
the sectors its data populates and merges the levels j >= R: they share
the diagonal lam_1 + lam_k and their entry of u, so permuting them fixes
the block and the start state (u, 0), and they evolve as one level of
weight sqrt((2^r - R) / 2^r).  Only the paths that take arbitrary states
complete the data basis to 2^n.  Both paths agree to rounding error, and
the blockwise one (:func:`run_qrdr`) is what makes realistic instances
cheap.  The tests keep the dense reference that evolves, post-selects and
disentangles the whole register, and a 40-digit evolution of each sector
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (SpectralDecomposition, evolve_spectral, hermitian_eig,
                     kron_all)
from .pca import PcaModel, fit_pca, target_state

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# post-selection below this probability is reported as a failure
MIN_POSTSELECT_PROB = 1e-12

# reduce_rows evolves at c = min(delta_min, 2^-r) / REDUCTION_C_DIVISOR, a
# hundredth of the protecting gap, and accepts a rank only if
# delta_min > REDUCTION_GAP_RTOL * lam_1.  Where delta_min sets the gap,
# the evolution time is t = 1/c <= 100 / (sqrt(eps) lam_1), so eigenvalue
# rounding (about eps * lam_1) dephases the sectors by at most
# 100 sqrt(eps) ~ 1.5e-6; where 2^-r sets it, by 100 * 2^r * eps * lam_1.
REDUCTION_C_DIVISOR = 100.0
REDUCTION_GAP_RTOL = math.sqrt(np.finfo(float).eps)

# build_hamiltonian warns when eigenvalue rounding (about eps * lam_1) can
# dephase the sectors by more than this many radians over t = 1/c.  A phase
# error phi costs up to about phi^2 of fidelity.  On reduce_rows(s * sonar,
# 2), eps lam_1 / c = 1.5e-2 rad (s = 1e4) still gave epsilon 1.3e-6, and
# 1.5 rad (s = 1e5) gave epsilon 6.7e-3.
DEPHASING_TOL = 0.1

# bytes of real blocks per sector eigensolve: one stack of sonar's 60
# blocks at R = 32 read 38.44 MB of benchmark peak RSS; 1 MiB, 256 KiB and
# 64 KiB stacks read 37.65, 35.52 and 35.02 MB (224 eigensolves, not 66)
SECTOR_STACK_BYTES = 2 ** 18


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

    @staticmethod
    def for_sizes(n_features: int, rank: int,
                  r_qubits: int | None = None) -> "RegisterLayout":
        r_min = max(1, math.ceil(math.log2(rank))) if rank > 1 else 1
        n = max(1, math.ceil(math.log2(n_features))) if n_features > 1 else 1
        r = r_min if r_qubits is None else r_qubits
        if r < r_min:
            raise ValueError(f"component register too small: need r >= {r_min}")
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

    Holds only what :func:`build_hamiltonian` checked: the PCA model with
    its data, the target rank, the register layout and the coupling.  The
    component-register diagonal, the sector blocks and the dense matrix
    are all derived from them, the dense matrix lazily since the blockwise
    path never needs it.
    """

    model: PcaModel
    rank: int
    layout: RegisterLayout
    c: float

    @property
    def t_resonant(self) -> float:
        return 1.0 / self.c

    @property
    def delta_min(self) -> float:
        return self.model.delta_min(self.rank)

    @property
    def hdiag(self) -> np.ndarray:
        """Component-register diagonal: -lam_1..-lam_R, then lam_1."""
        lam = self.model.eigenvalues
        hdiag = np.full(self.layout.dim_r, lam[0])
        hdiag[:self.rank] = -lam[:self.rank]
        return hdiag

    def padded_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Data spectrum and eigenbasis completed to the 2^n register: the
        padding sectors get eigenvalue 0 and basis vectors of their own.
        Only the paths that take arbitrary states need it."""
        n_feat, dim_n = self.model.n_features, self.layout.dim_n
        lam = np.zeros(dim_n)
        lam[:n_feat] = self.model.eigenvalues
        vectors = np.eye(dim_n)
        vectors[:n_feat, :n_feat] = self.model.components
        return lam, vectors

    def sector_eig(self, lam: np.ndarray,
                   u: np.ndarray) -> SpectralDecomposition:
        """Eigensystems of the spread-frame blocks of data eigenvalues
        ``lam``, [[u u^T - I, gamma I], [gamma I, diag(hdiag[:s] + lam_k)]]
        with s = u.size, from one real stacked eigensolve (one of
        :meth:`sector_stacks`).  The weights u are 2^(-r/2) (1, ..., 1) for
        the whole register, or the merged ones of :meth:`probe_amplitudes`."""
        s = u.size
        gamma = (self.c * np.pi / 2.0) * math.sqrt(self.layout.dim_r)
        idx = np.arange(s)
        blocks = np.zeros((lam.size, 2 * s, 2 * s))
        blocks[:, :s, :s] = np.outer(u, u) - np.eye(s)
        blocks[:, s + idx, s + idx] = self.hdiag[:s] + lam[:, None]
        blocks[:, idx, s + idx] = blocks[:, s + idx, idx] = gamma
        return hermitian_eig(blocks, check=False)

    def sector_stacks(self, lam: np.ndarray, u: np.ndarray):
        """``(sl, sector_eig(lam[sl], u))`` over consecutive slices of at
        least one sector and at most SECTOR_STACK_BYTES of blocks."""
        per = max(1, SECTOR_STACK_BYTES // (8 * (2 * u.size) ** 2))
        for start in range(0, lam.size, per):
            sl = slice(start, start + per)
            yield sl, self.sector_eig(lam[sl], u)

    def probe_amplitudes(self) -> np.ndarray:
        """Probe-|1> amplitudes of exp(-i H / c) |p=0, j=0>|v_k>, (j, k),
        over the model's sectors, i V_b (e^(-i theta t) * u^T V_a) with the
        levels j >= R merged (module docstring) and spread back, solved in
        :meth:`sector_stacks`."""
        levels = np.minimum(np.arange(self.layout.dim_r), self.rank)
        counts = np.bincount(levels)           # j >= R share one level
        u = np.sqrt(counts / self.layout.dim_r)
        lam = self.model.eigenvalues
        upper = np.empty((u.size, lam.size), dtype=complex)
        for sl, eig in self.sector_stacks(lam, u):
            top, bottom = np.split(eig.vectors, 2, axis=-2)
            phased = np.exp(-1j * eig.values * self.t_resonant) * (u @ top)
            upper[:, sl] = (1j * (bottom @ phased[..., None])[..., 0]).T
        return upper[levels] / np.sqrt(counts[levels])[:, None]

    def dense(self) -> np.ndarray:
        """Full 2^(1+r+n) matrix (for reference evolution and checks)."""
        dim_r, dim_n = self.layout.dim_r, self.layout.dim_n
        eye_n = np.eye(dim_n)
        top = np.zeros(dim_r)
        top[1:] = -1.0
        lam, vectors = self.padded_basis()
        H = np.zeros((self.layout.dim, self.layout.dim), dtype=complex)
        H += kron_all([np.diag([1.0, 0.0]), np.diag(top), eye_n])
        H += kron_all([np.diag([0.0, 1.0]), np.diag(self.hdiag), eye_n])
        H += kron_all([np.diag([0.0, 1.0]), np.eye(dim_r),
                       (vectors * lam) @ vectors.T])
        H += (self.c * np.pi / 2.0) * kron_all(
            [SIGMA_Y, spread_operator(self.layout.r_qubits), eye_n]
        )
        return H

    @cached_property
    def _dense_eig(self) -> SpectralDecomposition:
        return hermitian_eig(self.dense(), check=False)


class InadmissibleCoupling(ValueError):
    """The coupling c is not positive or reaches a protecting gap."""


def build_hamiltonian(model: PcaModel, rank: int, c: float,
                      r_qubits: int | None = None) -> QrdrHamiltonian:
    """Assemble the reduction Hamiltonian of rank R, enforcing admissibility.

    Rejects spectra degenerate across the R-boundary and couplings at or
    beyond either protecting gap: the minimal spectral gap delta_min(R),
    and 2^-r, the unit gap of the probe-|0> levels shared among the 2^r
    levels the spread coupling ties to each resonance.  Past either, the
    resonance structure is lost.  Warns when c exceeds a tenth of either
    gap, where the O(c^2) error law starts to visibly bend, and when
    eigenvalue rounding can dephase the resonances by more than
    :data:`DEPHASING_TOL`.  The registers come from
    :meth:`RegisterLayout.for_sizes`: ``r_qubits`` component qubits, by
    default the fewest that hold R.  A non-finite c is a plain
    ``ValueError``, which a sweep does not skip.
    """
    if not math.isfinite(c):
        raise ValueError(f"coupling c must be finite, got {c}")
    if c <= 0:
        raise InadmissibleCoupling(f"coupling c must be positive, got {c}")
    if model.boundary_degenerate(rank):
        lam = model.eigenvalues
        raise ValueError(
            "spectrum degenerate at the rank boundary: "
            f"lam[{rank}] = {lam[rank - 1]:.6e} vs "
            f"lam[{rank + 1}] = {lam[rank]:.6e}; the top-R "
            "subspace is not well defined"
        )
    layout = RegisterLayout.for_sizes(model.n_features, rank, r_qubits)
    gaps = (("delta_min", model.delta_min(rank)),
            ("2^-r", 2.0 ** -layout.r_qubits))
    for name, gap in gaps:
        if c >= gap:
            raise InadmissibleCoupling(
                f"coupling c = {c:.3e} is not admissible: it reaches the "
                f"protecting gap {name} = {gap:.3e}, so off-resonant levels "
                "are no longer suppressed; reduce c or reduce the rank"
            )
    for name, gap in gaps:
        if c > gap / 10.0:
            warnings.warn(
                f"coupling c = {c:.3e} exceeds {name}/10 = {gap / 10:.3e}; "
                "the quadratic error law degrades in this regime",
                stacklevel=2,
            )
    phase = np.finfo(float).eps * float(model.eigenvalues[0]) / c
    if phase > DEPHASING_TOL:
        warnings.warn(f"eigenvalue rounding can dephase the resonances by "
                      f"eps lam_1 / c = {phase:.2e} rad", stacklevel=2)
    return QrdrHamiltonian(model=model, rank=rank, layout=layout, c=c)


def evolve_full(h: QrdrHamiltonian, psi: np.ndarray) -> np.ndarray:
    """Reference evolution to t = 1/c through the dense eigensystem."""
    return evolve_spectral(h._dense_eig, h.t_resonant, psi)


def evolve_blockwise(h: QrdrHamiltonian, psi: np.ndarray) -> np.ndarray:
    """Evolution to t = 1/c through the invariant data-eigenvector sectors.

    Rotates the data register into the eigenbasis of A, evolves the 2^n
    sectors with their 2^(r+1)-dimensional spread-frame blocks in
    :meth:`QrdrHamiltonian.sector_stacks`, and rotates back.
    """
    psi = np.asarray(psi)
    dim_r, dim_n = h.layout.dim_r, h.layout.dim_n
    lam, vectors = h.padded_basis()
    spread = spread_operator(h.layout.r_qubits) / math.sqrt(dim_r)
    # (p, j, d, i) -> (k, (p, j), i): data axis in the eigenbasis, leading
    work = psi.reshape(2 * dim_r, dim_n, -1).swapaxes(0, 1)
    work = np.tensordot(vectors, work, axes=(0, 0))
    evolved = np.empty(work.shape, dtype=complex)
    for sl, eig in h.sector_stacks(lam, np.full(dim_r, dim_r ** -0.5)):
        # the spread-frame eigenvectors mapped back through diag(W, i I)
        top, bottom = np.split(eig.vectors, 2, axis=-2)
        eig = SpectralDecomposition(
            eig.values, np.concatenate([spread @ top, 1j * bottom], axis=-2))
        evolved[sl] = evolve_spectral(eig, h.t_resonant, work[sl])
    out = np.tensordot(vectors, evolved, axes=(1, 0)).swapaxes(0, 1)
    return out.reshape(psi.shape)


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


def _finish_outcome(h: QrdrHamiltonian, prob: float,
                    on_zero: np.ndarray) -> QrdrOutcome:
    # on_zero: post-selected, disentangled amplitudes on data |0..0>, (j, i)
    on_zero = on_zero.reshape(-1)
    target = target_state(h.model, h.rank, h.layout.r_qubits)
    overlap = np.vdot(target, on_zero)
    epsilon = float(1.0 - np.abs(overlap) ** 2)
    weight = float(np.sum(np.abs(on_zero) ** 2))
    reduced = on_zero / math.sqrt(weight) if weight > 0 else on_zero
    return QrdrOutcome(
        rank=h.rank,
        c=h.c,
        layout=h.layout,
        success_probability=prob,
        ideal_probability=h.model.variance_fraction(h.rank),
        epsilon=epsilon,
        fidelity=1.0 - epsilon,
        residual_weight=max(0.0, 1.0 - weight),   # weight rounds up to 1 + eps
        delta_min=h.delta_min,
        reduced_state=reduced,
        target=target,
    )


def run_qrdr(h: QrdrHamiltonian) -> QrdrOutcome:
    """End-to-end reduction of the data ``h`` was built from: evolve,
    post-select, disentangle and compare with the ideal top-R state.

    Returns a :class:`QrdrOutcome` holding the success probability, the
    infidelity epsilon against the ideal reduced state, and the normalised
    reduced state itself.  This is the sector-resolved fast path; the tests
    hold it against a dense run of the whole register.  The initial state
    only populates sector k with weight |X v_k|^2, and within each sector
    the dynamics acts on the (probe, component) factor alone.
    Post-selection and disentangling are evaluated directly from the sector
    amplitudes: <0..0| W_j |v_k> = v_j . v_k collapses to a Kronecker delta
    for resonant j, k, and to the leading eigenvector entries otherwise.
    """
    X, V = h.model.data, h.model.components
    m = X.shape[0]
    dim_r, rank = h.layout.dim_r, h.rank
    f = np.linalg.norm(X)
    # sector amplitudes of the initial state: z[:, k] over samples
    z = (X @ V) / f
    # probe |1> amplitudes, (j, k), in C order: that fixes how the products
    # below round, so reports stay byte-stable
    upper = h.probe_amplitudes()
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
    lead = V[0]                                # first entry of each v_k
    on_zero[rank:] = scale * (upper[rank:] @ (z * lead).T)
    return _finish_outcome(h, prob, on_zero)


def admissible_rank(model: PcaModel, max_rank: int) -> int:
    """Largest rank R <= max_rank whose protecting gap exceeds a floor,
    delta_min(R) > REDUCTION_GAP_RTOL * lam_1, which a zero gap never does.

    delta_min(R) includes the gap across the R-boundary, and the floor lies
    far above ``pca.DEGENERACY_RTOL``, so no chosen R is degenerate at its
    boundary.  On a fast-decaying spectrum this floor, not a null space,
    sets the rank: for the seed-7 8-site Ising data (lambda = 167, 32,
    1.01, 0.080, 1.67e-3, 1.65e-4, 1.7e-6, ...) delta_min(7) = 1.52e-6
    falls below the floor 2.49e-6, so R = 6.
    """
    floor = REDUCTION_GAP_RTOL * float(model.eigenvalues[0])
    for rank in range(min(max_rank, model.n_features), 0, -1):
        if model.delta_min(rank) > floor:
            return rank
    raise ValueError(
        f"no rank <= {max_rank} has a protecting gap > {floor:.3e}; "
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

    This is the entry point for downstream classifiers.  X is fitted once.
    The rank is the :func:`admissible_rank` of X up to 2^r_qubits; register
    indices at and beyond it hold only leakage, which epsilon counts.  The
    coupling is c = min(delta_min, 2^-r_qubits) / REDUCTION_C_DIVISOR, a
    hundredth of the protecting gap, and the evolution takes the blockwise
    path.  Returns ``(rows, outcome)``.
    ``rows[i]`` is the simulator's unit-norm reduced state of sample i.  It
    is complex, because the evolution leaves small relative phases.
    ``sample_rows(outcome.target, M)`` gives the ideal classical
    counterpart.
    """
    model = fit_pca(X)
    rank = admissible_rank(model, 2 ** r_qubits)
    c = min(model.delta_min(rank), 2.0 ** -r_qubits) / REDUCTION_C_DIVISOR
    outcome = run_qrdr(build_hamiltonian(model, rank, c, r_qubits))
    return sample_rows(outcome.reduced_state, model.data.shape[0]), outcome
