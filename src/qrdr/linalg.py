"""Dense linear-algebra primitives shared by the simulator modules.

Everything here is a thin, validated layer over ``numpy.linalg``: Hermitian
eigendecompositions, spectral time evolution exp(-i H t) |psi> and Kronecker
products over operator lists.  Eigendecompositions and evolution work on a
single matrix or on a stack of matrices of shape ``(..., d, d)``.  All
operators are dense ``numpy`` arrays; no sparse formats are used anywhere in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for Hermiticity checks, relative to the largest entry.
HERMITICITY_RTOL = 1e-10


def kron_all(ops) -> np.ndarray:
    """Kronecker product of a sequence of operators, left to right.

    ``kron_all([A, B, C])`` is ``A (x) B (x) C``; a single operator is
    returned unchanged (as an array).
    """
    ops = [np.asarray(op) for op in ops]
    if not ops:
        raise ValueError("kron_all needs at least one operator")
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _hermitian_deviation(H: np.ndarray) -> np.ndarray:
    # max |H - H^dagger| of each matrix over its largest entry, if nonzero
    dev = np.abs(H - np.swapaxes(H, -1, -2).conj()).max(axis=(-2, -1),
                                                        initial=0.0)
    scale = np.abs(H).max(axis=(-2, -1), initial=0.0)
    return dev / np.where(scale > 0, scale, 1.0)


def is_hermitian(H: np.ndarray) -> bool:
    """True when every matrix of ``H`` (shape ``(..., d, d)``) is Hermitian."""
    return bool(np.all(_hermitian_deviation(np.asarray(H))
                       <= HERMITICITY_RTOL))


@dataclass
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator, or of a stack of them.

    ``values[..., k]`` are real and ascending, ``vectors[..., :, k]`` is the
    eigenvector for ``values[..., k]``, so each matrix is
    ``vectors @ diag(values) @ vectors^dagger``.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(H: np.ndarray, check: bool = True) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix or a stack ``(..., d, d)``.

    A stack is diagonalised in one ``eigh`` call, which gives the same bits
    as diagonalising its matrices one by one.  With ``check`` the input must
    pass :func:`is_hermitian`; ``ValueError`` is raised instead of silently
    symmetrising the way ``eigh`` would.
    """
    H = np.asarray(H)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {H.shape}")
    if check and not is_hermitian(H):
        dev = _hermitian_deviation(H).max()
        raise ValueError(f"matrix is not Hermitian (max relative deviation "
                         f"{dev:.3e})")
    values, vectors = np.linalg.eigh(H)
    return SpectralDecomposition(values=values, vectors=vectors)


def evolve_spectral(decomp: SpectralDecomposition, t: float,
                    psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i H t) to ``psi`` through the eigenbasis ``decomp`` of H,
    a single or stacked :func:`hermitian_eig` result.

    ``psi`` holds either one state per matrix, shape ``(..., d)`` with at
    most as many axes as ``decomp.values``, or a matrix of column states
    per matrix, shape ``(..., d, m)``; leading axes broadcast.
    """
    vectors = decomp.vectors
    phases = np.exp(-1j * decomp.values * t)[..., None]
    psi = np.asarray(psi)
    vector = psi.ndim <= decomp.values.ndim
    if vector:
        psi = psi[..., None]
    # V^dagger psi as conj(V^T conj(psi)), which never copies V
    coeffs = np.conj(np.swapaxes(vectors, -1, -2) @ np.conj(psi))
    out = vectors @ (phases * coeffs)
    return out[..., 0] if vector else out
