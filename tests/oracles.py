"""Dense and stage-wise references that the tests hold the package against.

The package runs a reduction sector by sector (:func:`engine.run_qrdr`) and
the QCNN as one batched forward pass over a stack of branch images
(:func:`qcnn._forward_parts`).  The functions here do the same work the
long way: the reduction evolves, post-selects and disentangles the whole
register, or evolves each sector at 40 digits, and the classifier gathers
each branch image, then convolves, pools and reads out one sample at a
time.  No shipped code calls them.
"""

import base64
import math

import mpmath
import numpy as np

from qrdr.engine import (MIN_POSTSELECT_PROB, QrdrHamiltonian, QrdrOutcome,
                         RegisterLayout, _finish_outcome,
                         encode_dataset_state, evolve_full, spread_operator)
from qrdr.linalg import SpectralDecomposition
from qrdr.qcnn import (_BRANCH_CLASS, MIN_LCU_PROB, branch_sources,
                       branch_weights, n_readout, readout_features)


def reconstruct(decomp: SpectralDecomposition) -> np.ndarray:
    """vectors @ diag(values) @ vectors^dagger, for one matrix or a stack."""
    return ((decomp.vectors * decomp.values[..., None, :])
            @ np.swapaxes(decomp.vectors, -1, -2).conj())


# ---------------------------------------------------------------------------
# reduction: the whole register, evolved densely


def postselect_probe(psi: np.ndarray, layout: RegisterLayout):
    """Measure the probe, keep |1>: returns (probability, collapsed state).

    The collapsed state lives on (component register x data register), with
    any sample axis preserved, and is renormalised.  Raises when essentially
    no amplitude sits in the probe-|1> branch.
    """
    psi = np.asarray(psi)
    half = layout.dim_r * layout.dim_n
    if psi.shape[0] != 2 * half:
        raise ValueError(f"state dimension {psi.shape[0]} does not match layout")
    total = float(np.sum(np.abs(psi) ** 2))
    branch = psi[half:]
    prob = float(np.sum(np.abs(branch) ** 2) / total)
    if prob < MIN_POSTSELECT_PROB:
        raise ValueError(
            f"post-selection probability {prob:.3e} is essentially zero"
        )
    return prob, branch / math.sqrt(prob * total)


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
    psi = np.asarray(psi)
    _, vectors = h.padded_basis()
    work = psi.reshape(h.layout.dim_r, h.layout.dim_n, -1).copy()
    for k in range(h.rank):
        work[k] = _householder_apply(work[k], vectors[:, k])
    return work.reshape(psi.shape)


def run_full(h: QrdrHamiltonian) -> QrdrOutcome:
    """Dense reference for :func:`engine.run_qrdr`: the whole register is
    evolved, post-selected and disentangled."""
    layout = h.layout
    m = h.model.data.shape[0]
    encoded = encode_dataset_state(h.model.data, layout).reshape(
        layout.dim_n, m)
    psi0 = np.zeros((layout.dim, m))
    psi0.reshape(2, layout.dim_r, layout.dim_n, m)[0, 0] = encoded
    psi1 = evolve_full(h, psi0)
    prob, collapsed = postselect_probe(psi1, layout)
    cleaned = disentangle(collapsed, h)
    on_zero = cleaned.reshape(layout.dim_r, layout.dim_n, m)[:, 0, :]
    return _finish_outcome(h, prob, on_zero)


# ---------------------------------------------------------------------------
# reduction: each sector evolved at 40 digits

REFERENCE_DPS = 40


def sector_reference(h: QrdrHamiltonian, lam: np.ndarray) -> np.ndarray:
    """i times the probe-|1> amplitudes of exp(-i H_k t) |p=0, j=0> for each
    data eigenvalue lam_k, as (j, k), evolved at 40 significant digits.

    Block k is built in the real computational frame [[D0, g B], [g B, D1]],
    which diag(1, i) between the probe halves maps onto the sector of
    |v_k>: hence the factor i.  ``mpmath.eigsy`` diagonalises it.  The
    inputs (c, t = 1/c, hdiag and lam) are the float64 values the program
    uses, taken exactly.
    """
    dim_r = h.layout.dim_r
    B = spread_operator(h.layout.r_qubits)
    out = np.zeros((dim_r, len(lam)), dtype=complex)
    with mpmath.workdps(REFERENCE_DPS):
        g = mpmath.mpf(h.c) * mpmath.pi / 2
        t = mpmath.mpf(h.t_resonant)
        for k, lam_k in enumerate(lam):
            H = mpmath.zeros(2 * dim_r)
            for j in range(dim_r):
                H[j, j] = 0 if j == 0 else -1
                H[dim_r + j, dim_r + j] = (mpmath.mpf(h.hdiag[j])
                                           + mpmath.mpf(lam_k))
                for l in range(dim_r):
                    H[j, dim_r + l] = H[dim_r + l, j] = g * int(B[j, l])
            E, Q = mpmath.eigsy(H)
            phases = [mpmath.expj(-E[n] * t) * Q[0, n]
                      for n in range(2 * dim_r)]
            for j in range(dim_r):
                amp = mpmath.fsum(Q[dim_r + j, n] * phases[n]
                                  for n in range(2 * dim_r))
                out[j, k] = complex(1j * amp)
    return out


def run_reference(h: QrdrHamiltonian, sectors=None):
    """:func:`run_full` with the whole-register evolution replaced by
    :func:`sector_reference` over the model's sectors, or over ``sectors``
    only, for data that have no weight outside them.  Returns the outcome
    and the sector amplitudes, (j, k) over ``sectors``."""
    model, layout = h.model, h.layout
    if sectors is None:
        sectors = np.arange(model.n_features)
    V = model.components[:, sectors]
    z = model.data @ V / np.linalg.norm(model.data)
    upper = sector_reference(h, model.eigenvalues[sectors])
    # probe-|1> half over (j, d, i) in the computational basis
    collapsed = np.zeros((layout.dim_r, layout.dim_n, z.shape[0]),
                         dtype=complex)
    collapsed[:, :model.n_features] = np.einsum("jk,dk,ik->jdi", upper, V, z)
    prob = float(np.sum(np.abs(collapsed) ** 2))
    cleaned = disentangle(collapsed / math.sqrt(prob), h)
    return _finish_outcome(h, prob, cleaned[:, 0, :]), upper


# ---------------------------------------------------------------------------
# QCNN: one sample at a time, stage by stage


def branch_matrix(r: int, k: int) -> np.ndarray:
    """Dense permutation matrix of LCU branch k on an r-qubit register."""
    src = branch_sources(r)[k]
    Q = np.zeros((src.size, src.size))
    Q[np.arange(src.size), src] = 1.0
    return Q


def apply_branches(weights: np.ndarray, Z: np.ndarray,
                   sources: np.ndarray) -> np.ndarray:
    """sum_k w_k Q_k on the rows of Z by gathers: one scaled copy for the
    identity class, then one gather per other distinct product."""
    folded = np.bincount(_BRANCH_CLASS, weights=weights, minlength=9)
    out = folded[4] * Z
    for k in (0, 1, 2, 3, 5, 6, 7, 8):
        out += folded[k] * Z[:, sources[k]]
    return out


def conv_lcu(state: np.ndarray, ancilla: np.ndarray):
    """Post-selected LCU convolution of one data state.

    Prepare-select-unprepare with the ancilla returning to |0000> applies
    sum_k |a_k|^2 Q_k; the post-selection probability is the squared norm
    of that image.  Raises when essentially no amplitude survives.
    """
    state = np.asarray(state)
    r = int(round(math.log2(state.size)))
    if 2 ** r != state.size:
        raise ValueError("state dimension must be a power of two")
    weights = branch_weights(ancilla)
    out = apply_branches(weights, state[None, :], branch_sources(r))[0]
    prob = float(np.sum(np.abs(out) ** 2))
    if prob < MIN_LCU_PROB:
        raise ValueError(f"LCU post-selection probability {prob:.3e} too small")
    return prob, out / math.sqrt(prob)


def pool_discard(state: np.ndarray) -> np.ndarray:
    """Partial trace over the second half of the qubits.

    The pooling rotation is fixed to the identity, so pooling is exactly a
    discard; the result is a trace-1 PSD density operator on r/2 qubits.
    """
    state = np.asarray(state)
    r = int(round(math.log2(state.size)))
    if 2 ** r != state.size or r % 2:
        raise ValueError("state must live on an even number of qubits")
    dh = 2 ** (r // 2)
    block = state.reshape(dh, dh)
    return block @ block.conj().T


def readout_expectation(rho: np.ndarray, coeffs: np.ndarray) -> float:
    """e = h0 + sum_i h_i Tr(rho Z_i) + sum_{i<j} h_ij Tr(rho Z_i Z_j)."""
    rho = np.asarray(rho)
    q = int(round(math.log2(rho.shape[0])))
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n_readout(2 * q),):
        raise ValueError(
            f"expected {n_readout(2 * q)} readout coefficients, got {coeffs.shape}"
        )
    diag = np.real(np.diagonal(rho))
    return float(coeffs @ (readout_features(q) @ diag))


# ---------------------------------------------------------------------------
# checkpoints


def read_vector(obj: dict) -> np.ndarray:
    """A checkpoint's parameter vector, decoded as its format is documented:
    base64 of little-endian float64 bytes, in the stated shape."""
    assert set(obj) == {"dtype", "shape", "base64"} and obj["dtype"] == "<f8"
    return np.frombuffer(base64.b64decode(obj["base64"], validate=True),
                         "<f8").reshape(obj["shape"])
