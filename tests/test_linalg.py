import numpy as np
import pytest

from oracles import reconstruct
from qrdr.linalg import evolve_spectral, hermitian_eig, is_hermitian, kron_all

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.diag([1.0, -1.0])


def test_kron_identity():
    assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))


def test_kron_sigma_y_blocks():
    K = kron_all([SIGMA_Y, np.eye(2)])
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, 2:] = -1j * np.eye(2)
    expect[2:, :2] = 1j * np.eye(2)
    assert np.array_equal(K, expect)


def test_kron_matches_entrywise_definition(rng):
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(3, 3))
    K = kron_all([A, B])
    for i in range(6):
        for j in range(6):
            assert K[i, j] == A[i // 3, j // 3] * B[i % 3, j % 3]


def test_kron_single_and_empty():
    A = np.ones((2, 2))
    assert np.array_equal(kron_all([A]), A)
    with pytest.raises(ValueError):
        kron_all([])


def test_is_hermitian():
    # the deviation is measured against the matrix's own largest entry
    for scale in (1.0, 1e-11, 1e-300, 1e11):
        assert is_hermitian(scale * SIGMA_Y)
        assert not is_hermitian(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_hermitian(np.zeros((3, 3)))


def test_eig_diagonal():
    d = hermitian_eig(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(d.values, [1.0, 3.0])
    # eigenvectors are basis states, up to sign
    assert abs(abs(d.vectors[1, 0]) - 1.0) < 1e-14
    assert abs(abs(d.vectors[0, 1]) - 1.0) < 1e-14


def test_eig_pauli_z_spectrum():
    d = hermitian_eig(SIGMA_Z)
    np.testing.assert_allclose(d.values, [-1.0, 1.0])


def test_eig_reconstruction(rng):
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = (raw + raw.conj().T) / 2
    d = hermitian_eig(H)
    assert np.abs(reconstruct(d) - H).max() <= 1e-10


def test_eig_rejects_non_hermitian(rng):
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(rng.normal(size=(4, 4)))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((2, 3)))


def _hermitian_stack(rng, count, dim):
    raw = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return (raw + np.swapaxes(raw, -1, -2).conj()) / 2


def test_eig_stack_matches_single_calls_bitwise(rng):
    H = _hermitian_stack(rng, 7, 6)
    d = hermitian_eig(H)
    assert d.values.shape == (7, 6) and d.vectors.shape == (7, 6, 6)
    for k in range(7):
        single = hermitian_eig(H[k])
        assert np.array_equal(d.values[k], single.values)
        assert np.array_equal(d.vectors[k], single.vectors)
    assert np.abs(reconstruct(d) - H).max() <= 1e-10


def test_eig_stack_rejects_bad_input(rng):
    with pytest.raises(ValueError, match="square"):
        hermitian_eig(np.zeros((3, 2, 4)))
    H = _hermitian_stack(rng, 4, 3)
    H[2, 0, 1] += 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(H)
    hermitian_eig(H, check=False)     # unchecked: eigh reads one triangle


def test_evolve_stack_matches_single_evolutions(rng):
    H = _hermitian_stack(rng, 3, 4)
    d = hermitian_eig(H)
    e0 = np.eye(4)[0]
    cols = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    vecs = evolve_spectral(d, 0.8, e0)
    mats = evolve_spectral(d, 0.8, cols)
    assert vecs.shape == (3, 4) and mats.shape == (3, 4, 2)
    for k in range(3):
        single = hermitian_eig(H[k])
        np.testing.assert_allclose(vecs[k], evolve_spectral(single, 0.8, e0),
                                   atol=1e-12)
        np.testing.assert_allclose(mats[k],
                                   evolve_spectral(single, 0.8, cols[k]),
                                   atol=1e-12)


def _taylor_evolution(H, t, psi, terms=25):
    # truncated series for exp(-i H t) psi, independent of any eigensolver
    out = psi.astype(complex)
    term = psi.astype(complex)
    for k in range(1, terms):
        term = (-1j * t / k) * (H @ term)
        out = out + term
    return out


def test_evolve_zero_generator(rng):
    psi = rng.normal(size=4)
    out = evolve_spectral(hermitian_eig(np.zeros((4, 4))), 2.7, psi)
    np.testing.assert_allclose(out, psi, atol=1e-14)


def test_evolve_sigma_y_rotation():
    # exp(-i sigma_y t)|0> = cos(t)|0> + sin(t)|1>; t = pi/4
    out = evolve_spectral(hermitian_eig(SIGMA_Y), np.pi / 4,
                          np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [np.cos(np.pi / 4), np.sin(np.pi / 4)],
                               atol=1e-12)


def test_evolve_matches_taylor_series(rng):
    raw = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    H = (raw + raw.conj().T) / 2
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    out = evolve_spectral(hermitian_eig(H), 0.3, psi)
    assert np.abs(out - _taylor_evolution(H, 0.3, psi)).max() <= 1e-8


def test_evolve_accepts_decomposition_and_columns(rng):
    raw = rng.normal(size=(6, 6))
    H = (raw + raw.T) / 2
    d = hermitian_eig(H)
    cols = rng.normal(size=(6, 3))
    out = evolve_spectral(d, 0.5, cols)
    for j in range(3):
        np.testing.assert_allclose(out[:, j],
                                   evolve_spectral(d, 0.5, cols[:, j]),
                                   atol=1e-12)
