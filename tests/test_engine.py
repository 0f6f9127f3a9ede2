import numpy as np
import pytest

from qrdr.dataset import make_rng
from qrdr.engine import (REDUCTION_C_DIVISOR, RegisterLayout, _run_full,
                         admissible_rank, build_hamiltonian, disentangle,
                         encode_dataset_state, evolve_blockwise, evolve_full,
                         postselect_probe, reduce_rows, run_qrdr,
                         spread_operator)
from qrdr.pca import fit_pca


def _spectrum_matrix(eigenvalues):
    return np.diag(np.sqrt(np.asarray(eigenvalues, dtype=float)))


# ---------------------------------------------------------------------------
# layout and building blocks


def test_layout_index_and_dims():
    lay = RegisterLayout(r_qubits=2, n_qubits=3)
    assert (lay.dim_r, lay.dim_n, lay.dim) == (4, 8, 64)
    assert lay.index(1, 2, 5) == (1 * 4 + 2) * 8 + 5


def test_layout_for_sizes():
    lay = RegisterLayout.for_sizes(n_features=6, rank=3)
    assert (lay.r_qubits, lay.n_qubits) == (2, 3)
    lay = RegisterLayout.for_sizes(n_features=6, rank=3, r_qubits=4)
    assert lay.r_qubits == 4
    with pytest.raises(ValueError, match="too small"):
        RegisterLayout.for_sizes(n_features=6, rank=3, n_qubits=2)


def test_spread_operator_structure():
    B = spread_operator(2)
    assert B.shape == (4, 4)
    assert set(np.unique(B)) == {-1.0, 1.0}
    assert np.all(B[0] == 1.0) and np.all(B[:, 0] == 1.0)
    np.testing.assert_allclose(B @ B.T, 4 * np.eye(4), atol=1e-12)


def test_encode_basis_row():
    lay = RegisterLayout(r_qubits=1, n_qubits=2)
    X = np.zeros((1, 4))
    X[0, 2] = 1.0
    out = encode_dataset_state(X, lay)
    expect = np.zeros(4)
    expect[2] = 1.0
    np.testing.assert_allclose(out, expect)


def test_encode_is_flattened_transpose(rng):
    lay = RegisterLayout(r_qubits=1, n_qubits=2)
    X = rng.normal(size=(5, 4))
    out = encode_dataset_state(X, lay)
    np.testing.assert_allclose(out, (X.T / np.linalg.norm(X)).reshape(-1),
                               atol=1e-14)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_encode_sonar_slice_block_norms(sonar_features):
    X = sonar_features[:4]
    lay = RegisterLayout(r_qubits=1, n_qubits=6)
    out = encode_dataset_state(X, lay)
    assert np.linalg.norm(out) == pytest.approx(1.0)
    block = out.reshape(64, 4)
    np.testing.assert_allclose(np.linalg.norm(block, axis=0),
                               np.linalg.norm(X, axis=1) / np.linalg.norm(X),
                               atol=1e-12)


def test_encode_errors():
    lay = RegisterLayout(r_qubits=1, n_qubits=2)
    with pytest.raises(ValueError, match="exceed"):
        encode_dataset_state(np.ones((2, 5)), lay)
    with pytest.raises(ValueError, match="Frobenius"):
        encode_dataset_state(np.zeros((2, 4)), lay)


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def _popcount_sign(j, k):
    return -1.0 if bin(j & k).count("1") % 2 else 1.0


def test_dense_matches_entrywise_oracle(rng):
    # rebuild every matrix element of the composite operator from scratch
    X = rng.normal(size=(5, 3))
    model = fit_pca(X, 2)
    c = model.delta_min / 50.0
    h = build_hamiltonian(model, c)
    lay = h.layout
    assert (lay.r_qubits, lay.n_qubits) == (1, 2)

    lam = model.eigenvalues
    hdiag = np.array([-lam[0], -lam[1]])
    A_pad = np.zeros((4, 4))
    A_pad[:3, :3] = X.T @ X
    sigma_y = np.array([[0, -1j], [1j, 0]])

    expect = np.zeros((lay.dim, lay.dim), dtype=complex)
    for p in range(2):
        for j in range(lay.dim_r):
            for d in range(lay.dim_n):
                row = lay.index(p, j, d)
                for q in range(2):
                    for i in range(lay.dim_r):
                        for e in range(lay.dim_n):
                            col = lay.index(q, i, e)
                            val = 0.0 + 0.0j
                            if p == 0 and q == 0 and j == i and d == e:
                                val += 0.0 if j == 0 else -1.0
                            if p == 1 and q == 1 and j == i and d == e:
                                val += hdiag[j]
                            if p == 1 and q == 1 and j == i:
                                val += A_pad[d, e]
                            if p != q and d == e:
                                val += (c * np.pi / 2) * sigma_y[p, q] \
                                    * _popcount_sign(j, i)
                            expect[row, col] = val
    np.testing.assert_allclose(h.dense(), expect, atol=1e-12)
    np.testing.assert_allclose(h.hdiag, hdiag, atol=1e-12)


def test_build_pads_registers(sonar_features):
    model = fit_pca(sonar_features, 4)
    h = build_hamiltonian(model, 1e-3)
    assert (h.layout.r_qubits, h.layout.n_qubits) == (2, 6)
    np.testing.assert_allclose(h.hdiag, [-model.eigenvalues[0],
                                         -model.eigenvalues[1],
                                         -model.eigenvalues[2],
                                         -model.eigenvalues[3]])
    assert np.all(h.data_eigenvalues[60:] == 0.0)
    np.testing.assert_allclose(h.data_vectors[:60, :60], model.components)
    assert h.t_resonant == pytest.approx(1e3)


def test_build_rejects_non_positive_c(rng):
    model = fit_pca(rng.normal(size=(6, 4)), 2)
    with pytest.raises(ValueError, match="positive"):
        build_hamiltonian(model, 0.0)


def test_build_rejects_coupling_at_gap():
    model = fit_pca(_spectrum_matrix([4.0, 3.0, 1.0]), 2)
    assert model.delta_min == pytest.approx(1.0)
    with pytest.raises(ValueError, match="not admissible"):
        build_hamiltonian(model, model.delta_min)
    with pytest.raises(ValueError, match="not admissible"):
        build_hamiltonian(model, 2.5)


def test_build_warns_in_bent_regime():
    model = fit_pca(_spectrum_matrix([4.0, 3.0, 1.0]), 2)
    with pytest.warns(UserWarning, match="delta_min/10"):
        build_hamiltonian(model, 0.2)


def test_build_rejects_degenerate_boundary():
    model = fit_pca(_spectrum_matrix([4.0, 2.0, 2.0, 1.0]), 2)
    with pytest.raises(ValueError, match="degenerate at the rank boundary"):
        build_hamiltonian(model, 1e-4)


# ---------------------------------------------------------------------------
# resonance dynamics on eigenstate inputs


@pytest.fixture(scope="module")
def small_instance():
    X = make_rng(3, 42).normal(size=(12, 6))
    model = fit_pca(X, 3)
    c = model.delta_min / 500.0
    return X, model, build_hamiltonian(model, c)


def _eigenstate_input(h, k):
    psi = np.zeros(h.layout.dim, dtype=complex)
    n_feat = h.model.n_features
    psi.reshape(2, h.layout.dim_r, h.layout.dim_n)[0, 0, :n_feat] = \
        h.model.components[:, k]
    return psi


def test_resonant_transfer_per_component(small_instance):
    # |0>|0..0>|v_k> with k < R ends almost entirely on |1>|k>|v_k>
    _, model, h = small_instance
    ratio2 = (h.c / h.delta_min) ** 2
    for k in range(model.rank):
        out = evolve_full(h, _eigenstate_input(h, k))
        tgt = np.zeros(h.layout.dim, dtype=complex)
        tgt.reshape(2, h.layout.dim_r, h.layout.dim_n)[1, k, :6] = \
            model.components[:, k]
        mag2 = abs(np.vdot(tgt, out)) ** 2
        assert mag2 >= 1.0 - 150.0 * ratio2


def test_offresonant_sectors_stay_put(small_instance):
    _, model, h = small_instance
    ratio2 = (h.c / h.delta_min) ** 2
    for k in range(model.rank, 6):
        psi = _eigenstate_input(h, k)
        out = evolve_full(h, psi)
        mag2 = abs(np.vdot(psi, out)) ** 2
        assert mag2 >= 1.0 - 20.0 * ratio2


def test_epsilon_quarters_when_c_halves(sonar_features):
    e_large = run_qrdr(sonar_features, 16, 0.008).epsilon
    e_small = run_qrdr(sonar_features, 16, 0.004).epsilon
    assert 3.0 <= e_large / e_small <= 5.0


# ---------------------------------------------------------------------------
# evolution paths


def test_paths_agree_small_instance(rng):
    X = rng.normal(size=(6, 4))
    h = build_hamiltonian(fit_pca(X, 2), 1e-3)
    psi = rng.normal(size=h.layout.dim) + 1j * rng.normal(size=h.layout.dim)
    psi /= np.linalg.norm(psi)
    a = evolve_full(h, psi)
    b = evolve_blockwise(h, psi)
    assert np.abs(a - b).max() <= 1e-10
    np.testing.assert_allclose(np.linalg.norm(a), 1.0, atol=1e-10)


def test_sector_stack_is_the_dense_hamiltonian_per_sector(small_instance):
    _, _, h = small_instance
    dim_r, dim_n = h.layout.dim_r, h.layout.dim_n
    eig = h.sector_eig()
    assert eig.vectors.shape == (dim_n, 2 * dim_r, 2 * dim_r)
    # <(p, j), v_k| H |(q, l), v_k> for every sector k
    H = h.dense().reshape(2 * dim_r, dim_n, 2 * dim_r, dim_n)
    V = h.data_vectors
    restricted = np.einsum("dk,adbe,ek->kab", V, H, V)
    np.testing.assert_allclose(eig.reconstruct(), restricted, atol=1e-12)
    assert np.array_equal(h.sector_eig(3).values, eig.values[:3])


def test_blockwise_reduction_solves_one_stack(monkeypatch, rng):
    import qrdr.engine as engine

    calls = {"eig": [], "spread": 0}
    eig, spread = engine.hermitian_eig, engine.spread_operator

    def counted_eig(H, check=True):
        calls["eig"].append(np.shape(H))
        return eig(H, check)

    def counted_spread(r):
        calls["spread"] += 1
        return spread(r)

    monkeypatch.setattr(engine, "hermitian_eig", counted_eig)
    monkeypatch.setattr(engine, "spread_operator", counted_spread)
    X = rng.normal(size=(10, 6))
    run_qrdr(X, 2, 1e-3)
    # one stacked eigensolve over the 6 populated sectors, not the 8 padded
    assert calls == {"eig": [(6, 4, 4)], "spread": 1}


def test_blockwise_preserves_sector(small_instance):
    _, model, h = small_instance
    lay = h.layout
    psi = np.zeros(lay.dim, dtype=complex)
    view = psi.reshape(2, lay.dim_r, lay.dim_n)
    coeffs = make_rng(5, 1).normal(size=(2, lay.dim_r))
    for p in range(2):
        for j in range(lay.dim_r):
            view[p, j, :6] = coeffs[p, j] * model.components[:, 1]
    psi /= np.linalg.norm(psi)
    out = evolve_blockwise(h, psi).reshape(2 * lay.dim_r, lay.dim_n)
    for k in range(lay.dim_n):
        if k == 1:
            continue
        overlap = out @ h.data_vectors[:, k]
        assert np.abs(overlap).max() <= 1e-10


def test_paths_agree_on_sonar_truncation(sonar_features):
    X = sonar_features[:, :16]
    full = _run_full(build_hamiltonian(fit_pca(X, 4), 2e-3), X)
    block = run_qrdr(X, 4, 2e-3)
    assert abs(full.epsilon - block.epsilon) <= 1e-10
    assert abs(full.success_probability - block.success_probability) <= 1e-10
    np.testing.assert_allclose(full.reduced_state, block.reduced_state,
                               atol=1e-10)


# ---------------------------------------------------------------------------
# post-selection and disentangling


def test_postselect_probe_already_one(rng):
    lay = RegisterLayout(r_qubits=1, n_qubits=1)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    psi = np.zeros(lay.dim, dtype=complex)
    psi.reshape(2, 2, 2)[1, 0] = phi
    prob, collapsed = postselect_probe(psi, lay)
    assert prob == pytest.approx(1.0)
    np.testing.assert_allclose(collapsed.reshape(2, 2)[0], phi, atol=1e-12)


def test_postselect_superposed_probe(rng):
    lay = RegisterLayout(r_qubits=1, n_qubits=1)
    phi = rng.normal(size=4)
    phi /= np.linalg.norm(phi)
    psi = np.concatenate([phi, phi]) / np.sqrt(2.0)
    prob, collapsed = postselect_probe(psi, lay)
    assert prob == pytest.approx(0.5)
    np.testing.assert_allclose(collapsed, phi, atol=1e-12)


def test_postselect_errors():
    lay = RegisterLayout(r_qubits=1, n_qubits=1)
    with pytest.raises(ValueError, match="does not match"):
        postselect_probe(np.ones(6), lay)
    dead = np.zeros(8)
    dead[0] = 1.0
    with pytest.raises(ValueError, match="essentially zero"):
        postselect_probe(dead, lay)


def test_disentangle_maps_component_states(small_instance):
    _, model, h = small_instance
    lay = h.layout
    for k in range(model.rank):
        psi = np.zeros(lay.dim_r * lay.dim_n)
        psi.reshape(lay.dim_r, lay.dim_n)[k, :6] = model.components[:, k]
        out = disentangle(psi, h).reshape(lay.dim_r, lay.dim_n)
        expect = np.zeros((lay.dim_r, lay.dim_n))
        expect[k, 0] = 1.0
        np.testing.assert_allclose(out, expect, atol=1e-12)


def test_disentangle_fixed_point():
    # v_0 already equal to |0..0>: reflections reduce to the identity
    X = np.zeros((3, 4))
    X[:, 0] = [3.0, 2.0, 1.0]
    X[:, 1] = [0.1, -0.1, -0.1]   # orthogonal to column 0
    model = fit_pca(X, 1)
    np.testing.assert_allclose(model.components[:, 0], [1, 0, 0, 0], atol=1e-12)
    h = build_hamiltonian(model, model.delta_min / 100)
    psi = make_rng(8, 0).normal(size=h.layout.dim_r * h.layout.dim_n)
    psi /= np.linalg.norm(psi)
    out = disentangle(psi, h)
    np.testing.assert_allclose(out, psi, atol=1e-12)


def test_disentangled_weight_concentrates(rng):
    X = rng.normal(size=(10, 8))
    out = run_qrdr(X, 4, 1e-3)
    assert out.residual_weight <= 2.0 * out.epsilon + 1e-12


# ---------------------------------------------------------------------------
# end-to-end runs


def test_rank_limited_data_reduces_losslessly(rng):
    X = rng.normal(size=(9, 3)) @ rng.normal(size=(3, 8))
    out = run_qrdr(X, 3, 1e-4)
    assert out.epsilon <= 1e-4
    assert out.success_probability >= 0.999
    assert out.ideal_probability == pytest.approx(1.0)


def test_random_instance_meets_error_bound():
    rng = make_rng(21, 0)
    for _ in range(5):
        X = rng.normal(size=(16, 8))
        model = fit_pca(X, 4)
        out = run_qrdr(X, 4, 1e-3)
        bound = 1.0 - 10.0 * (1e-3 / model.delta_min) ** 2
        assert out.fidelity >= bound


def test_success_probability_tracks_variance(sonar_features):
    out = run_qrdr(sonar_features, 16, 0.004)
    assert abs(out.success_probability - out.ideal_probability) <= \
        out.epsilon + 0.01


def test_outcome_metrics_and_overrides(rng):
    X = rng.normal(size=(7, 6))
    out = run_qrdr(X, 2, 1e-3, r_qubits=3)
    assert out.layout.r_qubits == 3
    assert out.reduced_state.shape == (8 * 7,)
    assert np.linalg.norm(out.reduced_state) == pytest.approx(1.0)
    m = out.to_metrics()
    assert m["rank"] == 2
    assert m["fidelity"] == pytest.approx(1.0 - m["epsilon"])


# ---------------------------------------------------------------------------
# reduction entry point for downstream classifiers


def test_admissible_rank_stops_at_numerical_rank():
    model = fit_pca(_spectrum_matrix([4.0, 2.0, 1.0, 1e-12, 0, 0, 0, 0]), 1)
    assert admissible_rank(model, 8) == 3
    assert admissible_rank(model, 2) == 2
    chosen = fit_pca(_spectrum_matrix([4.0, 2.0, 1.0, 1e-12]), 3)
    build_hamiltonian(chosen, chosen.delta_min / REDUCTION_C_DIVISOR)
    with pytest.raises(ValueError, match="rank boundary"):
        build_hamiltonian(fit_pca(_spectrum_matrix([4.0, 2.0, 1.0, 0, 0]), 4),
                          1e-4)


def test_admissible_rank_skips_degenerate_levels():
    model = fit_pca(_spectrum_matrix([3.0, 2.0, 2.0, 1.0]), 1)
    assert admissible_rank(model, 2) == 1     # boundary inside the pair
    assert admissible_rank(model, 3) == 1     # pair inside the targets
    with pytest.raises(ValueError, match="degenerate at the top"):
        admissible_rank(fit_pca(np.eye(4), 1), 4)


def test_reduce_rows_follow_the_target(rng):
    X = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 8))   # rank 3
    rows, out = reduce_rows(X, 2)
    assert out.rank == 3 and out.layout.r_qubits == 2
    assert out.c == pytest.approx(fit_pca(X, 3).delta_min / REDUCTION_C_DIVISOR)
    bound = 10.0 / REDUCTION_C_DIVISOR ** 2    # 10 (c / delta_min)^2
    assert out.epsilon <= bound
    assert rows.shape == (12, 4) and np.iscomplexobj(rows)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(rows[:, 3]) ** 2) <= bound   # level past the rank
    target = out.target.reshape(4, 12).T
    target /= np.linalg.norm(target, axis=1, keepdims=True)
    overlap = np.abs(np.sum(target.conj() * rows, axis=1)) ** 2
    assert overlap.min() >= 1.0 - bound
