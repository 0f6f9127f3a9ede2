import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrdr import svm
from qrdr.dataset import holdout_split, make_rng
from qrdr.svm import (GAMMA_GRID, LssvmModel, accuracy, cross_validate,
                      decision_values, predict, r_sweep, reduced_features,
                      select_gamma, train_lssvm)


def _two_clusters(m_per_side=6, spread=0.1, seed=2):
    rng = make_rng(seed, 0)
    up = rng.normal(scale=spread, size=(m_per_side, 3)) + [3.0, 0.0, 0.0]
    dn = rng.normal(scale=spread, size=(m_per_side, 3)) - [3.0, 0.0, 0.0]
    X = np.vstack([up, dn])
    y = np.concatenate([np.ones(m_per_side), -np.ones(m_per_side)])
    return X, y


def _bordered_system(X, gamma):
    m = X.shape[0]
    system = np.zeros((m + 1, m + 1))
    system[0, 1:] = 1.0
    system[1:, 0] = 1.0
    system[1:, 1:] = X @ X.T + np.eye(m) / gamma
    return system


def _dual_lssvm(X, y, gamma):
    """The LS-SVM dual, the oracle of the primal solve: (eta, b) from

        [ 0    1^T             ] [ b   ]   [ 0 ]
        [ 1    X X^T + I/gamma ] [ eta ] = [ y ]

    with decision function sum_j eta_j x_j . x + b.
    """
    sol = np.linalg.solve(_bordered_system(X, gamma),
                          np.concatenate([[0.0], y]))
    return sol[1:], sol[0]


# ---------------------------------------------------------------------------
# training


def test_train_mirror_pair_is_antisymmetric():
    X = np.array([[1.0, 2.0], [-1.0, -2.0]])
    y = np.array([1.0, -1.0])
    model = train_lssvm(X, y, (2.0,))
    assert model.bias[0] == pytest.approx(0.0, abs=1e-12)
    eta, b = _dual_lssvm(X, y, 2.0)
    assert eta[0] == pytest.approx(-eta[1])
    np.testing.assert_allclose(model.weights[:, 0], X.T @ eta, atol=1e-12)
    vals = decision_values(model, X)[:, 0]
    assert vals[0] == pytest.approx(-vals[1])
    np.testing.assert_array_equal(predict(model, X), [[1], [-1]])


def test_train_single_class_predicts_it(rng):
    X = rng.normal(size=(5, 3))
    model = train_lssvm(X, np.ones(5), (1.0,))
    np.testing.assert_array_equal(predict(model, rng.normal(size=(8, 3))),
                                  np.ones((8, 1)))


def test_train_matches_block_elimination_solver(rng):
    # Schur-complement solution: eta = Om^-1 (y - b 1), b from the border
    X = rng.normal(size=(6, 4))
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    gamma = 3.0
    model = train_lssvm(X, y, (gamma,))
    om_inv = np.linalg.inv(X @ X.T + np.eye(6) / gamma)
    ones = np.ones(6)
    b = (ones @ om_inv @ y) / (ones @ om_inv @ ones)
    eta = om_inv @ (y - b * ones)
    assert model.bias[0] == pytest.approx(b, abs=1e-10)
    np.testing.assert_allclose(model.weights[:, 0], X.T @ eta, atol=1e-10)


def test_train_residual_and_constraint(rng):
    # the primal fit satisfies the dual conditions with eta = gamma * residual:
    # w = X^T eta, sum(eta) = 0, and the bordered system holds
    X = rng.normal(size=(9, 5))
    y = np.sign(rng.normal(size=9)) + (rng.normal(size=9) == 0)
    model = train_lssvm(X, y, (4.0,))
    eta = 4.0 * (y - decision_values(model, X)[:, 0])
    assert abs(eta.sum()) <= 1e-9
    np.testing.assert_allclose(model.weights[:, 0], X.T @ eta, atol=1e-10)
    sol = np.concatenate([model.bias, eta])
    rhs = np.concatenate([[0.0], y])
    residual = _bordered_system(X, 4.0) @ sol - rhs
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), m=st.integers(1, 59),
       n_feat=st.integers(1, 40), gamma=st.sampled_from(GAMMA_GRID))
def test_train_matches_dual_decision_values(seed, m, n_feat, gamma):
    # m < N (the dual is the smaller system) and m > N (the primal is)
    rng = make_rng(seed, 0)
    X = rng.normal(size=(m, n_feat))
    y = np.where(rng.normal(size=m) >= 0, 1.0, -1.0)
    X_eval = rng.normal(size=(5, n_feat))
    eta, b = _dual_lssvm(X, y, gamma)
    dual = X_eval @ (X.T @ eta) + b
    primal = decision_values(train_lssvm(X, y, (gamma,)), X_eval)[:, 0]
    assert np.linalg.norm(primal - dual) <= 1e-10 * np.linalg.norm(dual)


def test_train_validation_errors(rng):
    X = rng.normal(size=(4, 2))
    with pytest.raises(ValueError, match="gamma"):
        train_lssvm(X, np.ones(4), (0.0,))
    with pytest.raises(ValueError, match="gamma must be positive, got -1.0"):
        select_gamma(X, np.array([1, -1, 1, -1]), gammas=(1.0, -1.0))
    with pytest.raises(ValueError, match="align"):
        train_lssvm(X, np.ones(3), (1.0,))
    with pytest.raises(ValueError, match="align"):
        train_lssvm(X[:0], np.ones(0), (1.0,))
    # a fit takes a grid; one gamma is the grid (gamma,)
    with pytest.raises(ValueError, match=r"1-D grid, got shape \(\)"):
        train_lssvm(X, np.ones(4), 1.0)
    with pytest.raises(ValueError, match=r"non-empty 1-D grid"):
        train_lssvm(X, np.ones(4), ())
    with pytest.raises(ValueError, match=r"1-D grid, got shape \(2, 1\)"):
        train_lssvm(X, np.ones(4), [[1.0], [2.0]])


def test_train_and_decision_values_reject_non_finite_features(rng):
    X = rng.normal(size=(4, 3))
    model = train_lssvm(X, np.array([1.0, -1.0, 1.0, -1.0]), (1.0,))
    for bad in (np.nan, np.inf):
        Xb = X.copy()
        Xb[2, 1] = bad
        with pytest.raises(ValueError, match="row 3, column 2: non-finite"):
            train_lssvm(Xb, np.ones(4), (1.0,))
        with pytest.raises(ValueError, match="row 3, column 2: non-finite"):
            predict(model, Xb)
    with pytest.raises(ValueError, match="complex"):
        decision_values(model, X * 1j)


# ---------------------------------------------------------------------------
# prediction


def test_interpolating_fit_memorizes_labels(rng):
    X = rng.normal(size=(10, 6))
    y = np.where(rng.normal(size=10) > 0, 1.0, -1.0)
    model = train_lssvm(X, y, (1e6,))
    np.testing.assert_array_equal(accuracy(model, X, y), [1.0])


def test_decision_values_shape_and_single_row():
    X, y = _two_clusters()
    model = train_lssvm(X, y, (1.0,))
    vals = decision_values(model, X[:3])
    assert vals.shape == (3, 1)
    assert decision_values(model, X[0]).shape == (1, 1)
    assert decision_values(model, X[0])[0, 0] == pytest.approx(vals[0, 0])


def test_predict_tie_resolves_positive():
    model = LssvmModel(weights=np.zeros((2, 1)), bias=np.zeros(1),
                       gammas=np.ones(1))
    np.testing.assert_array_equal(predict(model, np.ones((3, 2))),
                                  [[1], [1], [1]])


# ---------------------------------------------------------------------------
# gamma selection and cross-validation


def test_fit_at_a_gamma_grid_matches_one_fit_per_gamma(rng):
    X = rng.normal(size=(11, 4))
    y = np.where(rng.normal(size=11) >= 0, 1.0, -1.0)
    X_eval = rng.normal(size=(30, 4))
    y_eval = np.where(rng.normal(size=30) >= 0, 1.0, -1.0)
    grid = np.array(GAMMA_GRID)
    models = train_lssvm(X, y, grid)
    assert models.weights.shape == (4, grid.size)
    np.testing.assert_array_equal(models.gammas, grid)
    accs = accuracy(models, X_eval, y_eval)
    assert accs.shape == grid.shape
    for k, gamma in enumerate(GAMMA_GRID):
        one = train_lssvm(X, y, (gamma,))
        np.testing.assert_allclose(models.weights[:, k], one.weights[:, 0],
                                   rtol=0, atol=1e-12)
        assert models.bias[k] == pytest.approx(one.bias[0], abs=1e-12)
        assert accs[k] == accuracy(one, X_eval, y_eval)[0]


def test_select_gamma_tie_takes_smallest():
    X, y = _two_clusters()
    assert select_gamma(X, y) == GAMMA_GRID[0] == 0.5


def test_cross_validate_makes_one_factorisation_per_training_set(monkeypatch):
    # INNER_K fits in select_gamma and one final fit per fold, and every
    # eigendecomposition runs inside one of them
    X, y = _two_clusters(m_per_side=12)
    fits, eighs, inside = [], [], []
    train, eigh = svm.train_lssvm, np.linalg.eigh

    def traced_train(*args):
        fits.append(args)
        inside.append(True)
        try:
            return train(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(svm, "train_lssvm", traced_train)
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda A: eighs.append(bool(inside)) or eigh(A))
    cross_validate(X, y, k=4)
    assert len(fits) == 4 * (svm.INNER_K + 1)
    assert eighs == [True] * len(fits)


def test_cross_validate_separable_is_perfect():
    X, y = _two_clusters()
    res = cross_validate(X, y, k=4)
    assert res.mean_accuracy == 1.0
    assert np.all(res.fold_accuracies == 1.0)
    assert all(g in GAMMA_GRID for g in res.chosen_gammas)
    m = res.to_metrics()
    assert m["k"] == 4 and len(m["fold_accuracies"]) == 4


def test_cross_validate_warns_on_single_class_fold():
    X = np.vstack([np.eye(5)[:4] + 2.0, [[-2.0, -2.0, 0.0, 0.0, 0.0]]])[:, :3]
    X = np.ascontiguousarray(X)
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    with pytest.warns(UserWarning, match="single class"):
        cross_validate(X, y, k=5)


@pytest.mark.parametrize("protocol", [
    lambda X, y: cross_validate(X, y),
    lambda X, y: select_gamma(X, y),
    lambda X, y: r_sweep(X, y, ranks=(4,), reps=1),
    lambda X, y: reduced_features(X, 4),
], ids=["cross_validate", "select_gamma", "r_sweep", "reduced_features"])
def test_protocols_reject_non_finite_and_complex_features(sonar, protocol):
    X = sonar.features.copy()
    X[4, 9] = np.nan
    with pytest.raises(ValueError, match="row 5, column 10: non-finite"):
        protocol(X, sonar.labels)
    with pytest.raises(ValueError, match="complex"):
        protocol(sonar.features * (1 + 1e-3j), sonar.labels)


def test_cross_validate_sonar_raw_regression(sonar):
    res = cross_validate(sonar.features, sonar.labels)
    assert res.mean_accuracy == pytest.approx(0.75, abs=1e-9)
    assert res.fold_accuracies[1] == pytest.approx(15 / 26, abs=1e-12)


def test_cross_validate_sonar_reduced_regression(sonar):
    Z = reduced_features(sonar.features, 16)
    res = cross_validate(Z, sonar.labels)
    assert res.mean_accuracy == pytest.approx(0.7403846153846154, abs=1e-9)


# ---------------------------------------------------------------------------
# rank sweep


def test_reduced_features_nested_and_isometric(sonar_features):
    Z32 = reduced_features(sonar_features, 32)
    Z16 = reduced_features(sonar_features, 16)
    np.testing.assert_allclose(Z32[:, :16], Z16, atol=1e-10)
    Z60 = reduced_features(sonar_features, 60)
    np.testing.assert_allclose(Z60 @ Z60.T, sonar_features @ sonar_features.T,
                               atol=1e-8)


def test_r_sweep_shapes_and_metrics():
    X, y = _two_clusters(m_per_side=12)
    res = r_sweep(X, y, ranks=(2, 3), reps=3, test_count=4, seed=5)
    assert res.rep_accuracies.shape == (2, 3)
    np.testing.assert_allclose(res.mean_accuracies,
                               res.rep_accuracies.mean(axis=1))
    m = res.to_metrics()
    assert m["ranks"] == [2, 3]
    assert m["min_accuracies"] == [min(r) for r in m["rep_accuracies"]]
    assert m["max_accuracies"] == [max(r) for r in m["rep_accuracies"]]
    assert m["reps"] == 3 and m["test_count"] == 4


def test_r_sweep_rejects_bad_ranks():
    X, y = _two_clusters(m_per_side=8)   # 3 features
    with pytest.raises(ValueError, match="power of two"):
        r_sweep(X, y, ranks=(2, 5), reps=2, test_count=3)
    with pytest.raises(ValueError, match="power of two"):
        r_sweep(X, y, ranks=(1,), reps=2, test_count=3)
    with pytest.raises(ValueError, match="power of two"):
        r_sweep(X, y, ranks=(4,), reps=2, test_count=3)


def test_r_sweep_full_rank_equals_raw_holdout():
    # projecting onto all N components is an isometry: accuracy must match
    # training directly on the raw features, split by split
    X, y = _two_clusters(m_per_side=10, spread=2.4, seed=9)
    res = r_sweep(X, y, ranks=(2, 3), reps=4, test_count=5, seed=11)
    for rep in range(4):
        tr, te = holdout_split(20, 5, 11, rep)
        gamma = select_gamma(X[tr], y[tr], seed=11, stream=200 + rep)
        model = train_lssvm(X[tr], y[tr], (gamma,))
        assert res.rep_accuracies[1, rep] == accuracy(model, X[te], y[te])[0]
