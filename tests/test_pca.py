import numpy as np
import pytest

from qrdr.pca import PcaModel, fit_pca, project, target_state


def _matrix_with_spectrum(eigenvalues):
    # X = diag(sqrt(lam)) gives X^T X = diag(lam) exactly
    return np.diag(np.sqrt(np.asarray(eigenvalues, dtype=float)))


def test_fit_rejects_1d_input():
    with pytest.raises(ValueError, match="expected a 2-D array"):
        fit_pca(np.zeros(3))


def test_fit_rank_range():
    m = fit_pca(np.eye(3))
    for ask in (m.delta_min, m.boundary_degenerate, m.variance_fraction,
                lambda rank: project(np.eye(3), m, rank)):
        for rank in (0, 4):
            with pytest.raises(ValueError,
                               match=f"rank must be in \\[1, 3\\], got {rank}"):
                ask(rank)


def test_fit_keeps_the_checked_data(sonar_features):
    m = fit_pca(sonar_features)
    assert m.data is sonar_features
    m = fit_pca([[1, 2], [3, 4]])
    assert m.data.dtype == float and m.data.shape == (2, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fit_rejects_non_finite_entries(sonar_features, value):
    X = sonar_features.copy()
    X[4, 9] = value
    with pytest.raises(ValueError, match="row 5, column 10: non-finite"):
        fit_pca(X)


def test_fit_rejects_complex_entries(rng):
    X = rng.normal(size=(6, 4)) + 0j
    X[2, 1] += 1e-3j
    with pytest.raises(ValueError, match="complex"):
        fit_pca(X)


def test_fit_eigensystem_properties(rng):
    X = rng.normal(size=(12, 6))
    m = fit_pca(X)
    assert np.all(np.diff(m.eigenvalues) <= 1e-12)  # descending
    np.testing.assert_allclose(m.components.T @ m.components, np.eye(6),
                               atol=1e-10)
    A = (m.components * m.eigenvalues) @ m.components.T
    np.testing.assert_allclose(A, X.T @ X, atol=1e-9)


def test_fit_sign_convention(rng):
    m = fit_pca(rng.normal(size=(10, 4)))
    for k in range(4):
        v = m.components[:, k]
        assert v[np.argmax(np.abs(v))] > 0


def test_variance_fraction_full_rank(rng):
    X = rng.normal(size=(9, 4))
    assert fit_pca(X).variance_fraction(4) == pytest.approx(1.0)


def test_variance_fraction_collinear(rng):
    base = rng.normal(size=5)
    X = np.outer(rng.normal(size=8), base)
    assert fit_pca(X).variance_fraction(1) == pytest.approx(1.0)


def test_sonar_spectrum_against_svd(sonar_features):
    # independent solver: singular values of X instead of eigh of X^T X
    m = fit_pca(sonar_features)
    s = np.linalg.svd(sonar_features, compute_uv=False)
    np.testing.assert_allclose(m.eigenvalues[:16], (s ** 2)[:16], rtol=1e-8)


def test_degenerate_pairs_flagged():
    m = fit_pca(_matrix_with_spectrum([4.0, 2.0, 2.0, 1.0]))
    assert (1, 2) in m.degenerate_pairs
    assert m.boundary_degenerate(2)


def test_boundary_not_degenerate_inside():
    m = fit_pca(_matrix_with_spectrum([4.0, 2.0, 2.0, 1.0]))
    assert (1, 2) in m.degenerate_pairs
    assert not m.boundary_degenerate(3)


def test_delta_min_includes_boundary_gap():
    # top-(R+1) adjacent gaps and the drop to the padded zero levels
    m = fit_pca(_matrix_with_spectrum([10.0, 6.0, 5.0, 3.0, 2.5, 1.0]))
    assert m.delta_min(3) == pytest.approx(1.0)   # gap 6 -> 5
    assert m.delta_min(4) == pytest.approx(0.5)   # boundary gap 3 -> 2.5
    m = fit_pca(_matrix_with_spectrum([10.0, 6.0, 2.0]))
    assert m.delta_min(3) == pytest.approx(2.0)   # full rank: gap to zero levels


def test_project_isometry_at_full_rank(rng):
    X = rng.normal(size=(6, 5))
    Z = project(X, fit_pca(X), 5)
    np.testing.assert_allclose(np.linalg.norm(Z, axis=1),
                               np.linalg.norm(X, axis=1), atol=1e-10)


def test_project_line_data():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    m = fit_pca(X)
    Z = project(X, m, 1)
    np.testing.assert_allclose(np.abs(Z[:, 0]),
                               np.linalg.norm(X, axis=1), atol=1e-12)
    # rank-1 data reconstructs exactly from one component
    recon = Z @ m.components[:, :1].T
    np.testing.assert_allclose(recon, X, atol=1e-12)


def test_project_zero_matrix(rng):
    m = fit_pca(rng.normal(size=(5, 3)))
    assert np.array_equal(project(np.zeros((4, 3)), m, 2), np.zeros((4, 2)))


def test_project_dimension_mismatch(rng):
    m = fit_pca(rng.normal(size=(5, 3)))
    with pytest.raises(ValueError, match="feature count"):
        project(np.zeros((4, 5)), m, 2)
    with pytest.raises(ValueError, match="feature count 5 does not match"):
        project(np.zeros(5), m, 2)


def test_project_single_row_matches_matrix_row(rng):
    X = rng.normal(size=(5, 3))
    m = fit_pca(X)
    np.testing.assert_array_equal(project(X[1], m, 2), project(X, m, 2)[1])


def test_target_state_single_sample():
    X = np.zeros((1, 4))
    X[0, 0] = 1.0
    t = target_state(fit_pca(X), 1, 1)
    assert t.shape == (2,)  # one component qubit, one sample
    np.testing.assert_allclose(np.abs(t), [1.0, 0.0], atol=1e-12)


def test_target_state_equal_norm_samples(rng):
    v = rng.normal(size=4)
    X = np.stack([v, -v])
    t = target_state(fit_pca(X), 1, 1)
    probs = t.reshape(-1, 2) ** 2    # (component, sample)
    np.testing.assert_allclose(probs.sum(axis=0), [0.5, 0.5], atol=1e-12)


def test_target_state_matches_normalised_projection(sonar_features):
    m = fit_pca(sonar_features)
    Z = project(sonar_features, m, 16)
    t = target_state(m, 16, 4)
    assert t.shape == (16 * 208,)
    np.testing.assert_allclose(t, Z.T.reshape(-1) / np.linalg.norm(Z),
                               atol=1e-12)
    assert np.linalg.norm(t) == pytest.approx(1.0)


def test_target_state_zero_projection_rejected():
    with pytest.raises(ValueError, match="vanish"):
        target_state(fit_pca(np.zeros((2, 4))), 2, 1)


def test_target_state_register_override(sonar_features):
    m = fit_pca(sonar_features[:8])
    t = target_state(m, 4, 3)
    assert t.shape == (8 * 8,)
    np.testing.assert_allclose(t.reshape(8, 8)[4:], 0.0)  # padding is empty
    with pytest.raises(ValueError, match="cannot hold"):
        target_state(m, 4, 1)
