import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (disentangle, postselect_probe, reconstruct, run_full,
                     run_reference)
from qrdr.dataset import make_rng
from qrdr.engine import (REDUCTION_C_DIVISOR, InadmissibleCoupling,
                         QrdrHamiltonian, RegisterLayout, admissible_rank,
                         build_hamiltonian, encode_dataset_state,
                         evolve_blockwise, evolve_full, reduce_rows, run_qrdr,
                         spread_operator)
from qrdr.pca import fit_pca
from qrdr.tfim import generate_dataset


def _spectrum_matrix(eigenvalues):
    return np.diag(np.sqrt(np.asarray(eigenvalues, dtype=float)))


def _reduce(X, rank, c, r_qubits=None):
    return run_qrdr(build_hamiltonian(fit_pca(X), rank, c, r_qubits))


def _index(lay, p, j, d):
    # basis-state index of |p>|j>|d>: C order over (probe, component, data)
    return int(np.ravel_multi_index((p, j, d), (2, lay.dim_r, lay.dim_n)))


# ---------------------------------------------------------------------------
# layout and building blocks


def test_layout_index_and_dims():
    lay = RegisterLayout(r_qubits=2, n_qubits=3)
    assert (lay.dim_r, lay.dim_n, lay.dim) == (4, 8, 64)
    assert _index(lay, 1, 2, 5) == (1 * 4 + 2) * 8 + 5


def test_layout_for_sizes():
    lay = RegisterLayout.for_sizes(n_features=6, rank=3)
    assert (lay.r_qubits, lay.n_qubits) == (2, 3)
    lay = RegisterLayout.for_sizes(n_features=6, rank=3, r_qubits=4)
    assert lay.r_qubits == 4
    with pytest.raises(ValueError, match="too small"):
        RegisterLayout.for_sizes(n_features=6, rank=3, r_qubits=1)


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
    model = fit_pca(X)
    c = model.delta_min(2) / 50.0
    h = build_hamiltonian(model, 2, c)
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
                row = _index(lay, p, j, d)
                for q in range(2):
                    for i in range(lay.dim_r):
                        for e in range(lay.dim_n):
                            col = _index(lay, q, i, e)
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
    model = fit_pca(sonar_features)
    h = build_hamiltonian(model, 4, 1e-3)
    assert (h.layout.r_qubits, h.layout.n_qubits) == (2, 6)
    np.testing.assert_allclose(h.hdiag, [-model.eigenvalues[0],
                                         -model.eigenvalues[1],
                                         -model.eigenvalues[2],
                                         -model.eigenvalues[3]])
    lam, vectors = h.padded_basis()     # padding sectors: 0 and |d>
    assert np.all(lam[:60] == model.eigenvalues) and np.all(lam[60:] == 0.0)
    expect = np.eye(64)
    expect[:60, :60] = model.components
    assert np.array_equal(vectors, expect)
    assert h.t_resonant == pytest.approx(1e3)


def test_hamiltonian_holds_only_what_build_checks():
    assert [f.name for f in dataclasses.fields(QrdrHamiltonian)] == \
        ["model", "rank", "layout", "c"]


def test_pipeline_never_completes_the_basis(monkeypatch, sonar_features):
    # only dense() and evolve_blockwise need the 2^n basis
    def refuse(self):
        raise AssertionError("the pipeline completed the 2^n basis")

    monkeypatch.setattr(QrdrHamiltonian, "padded_basis", refuse)
    out = run_qrdr(build_hamiltonian(fit_pca(sonar_features), 16, 0.004))
    assert out.epsilon < 1e-4
    rows, out = reduce_rows(generate_dataset(n_sites=4, count=8,
                                             seed=3).features, 2)
    assert rows.shape == (8, 4) and out.epsilon < 1e-6


def test_build_rejects_non_positive_c(rng):
    model = fit_pca(rng.normal(size=(6, 4)))
    with pytest.raises(ValueError, match="positive"):
        build_hamiltonian(model, 2, 0.0)


@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_build_rejects_non_finite_c_as_a_plain_error(rng, c):
    # not InadmissibleCoupling: a sweep must stop on it, not skip it
    model = fit_pca(rng.normal(size=(6, 4)))
    with pytest.raises(ValueError, match="must be finite") as info:
        build_hamiltonian(model, 2, c)
    assert not isinstance(info.value, InadmissibleCoupling)


def test_build_rejects_coupling_at_gap():
    # delta_min(2) = 0.01 lies far below the probe gap 2^-1
    model = fit_pca(_spectrum_matrix([0.04, 0.03, 0.01]))
    assert model.delta_min(2) == pytest.approx(0.01)
    with pytest.raises(ValueError, match="not admissible.*delta_min = "):
        build_hamiltonian(model, 2, model.delta_min(2))
    with pytest.raises(ValueError, match="not admissible.*delta_min = "):
        build_hamiltonian(model, 2, 0.025)


def test_build_warns_in_bent_regime():
    model = fit_pca(_spectrum_matrix([0.04, 0.03, 0.01]))
    with pytest.warns(UserWarning, match="delta_min/10"):
        build_hamiltonian(model, 2, 0.002)


def test_build_rejects_coupling_at_probe_gap():
    # delta_min(2) = 100: the probe-|0> gap 2^-r protects the resonances
    model = fit_pca(_spectrum_matrix([400.0, 300.0, 100.0]))
    assert model.delta_min(2) == pytest.approx(100.0)
    with pytest.raises(InadmissibleCoupling, match="2\\^-r = 5.000e-01"):
        build_hamiltonian(model, 2, 0.5)
    with pytest.raises(InadmissibleCoupling, match="2\\^-r = 1.250e-01"):
        build_hamiltonian(model, 2, 0.2, r_qubits=3)
    with pytest.warns(UserWarning, match="2\\^-r/10"):
        build_hamiltonian(model, 2, 0.06)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_hamiltonian(model, 2, 0.04)


def test_build_rejects_degenerate_boundary():
    model = fit_pca(_spectrum_matrix([4.0, 2.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="degenerate at the rank boundary"):
        build_hamiltonian(model, 2, 1e-4)


def test_build_rejects_a_register_too_small_for_the_rank(rng):
    # every layout comes from RegisterLayout.for_sizes, which the rank checks
    model = fit_pca(rng.normal(size=(12, 6)))
    with pytest.raises(ValueError, match="component register too small: "
                                         "need r >= 2"):
        build_hamiltonian(model, 4, 1e-4, r_qubits=1)
    assert build_hamiltonian(model, 4, 1e-4, r_qubits=3).layout == \
        RegisterLayout(r_qubits=3, n_qubits=3)


# ---------------------------------------------------------------------------
# resonance dynamics on eigenstate inputs


@pytest.fixture(scope="module")
def small_instance():
    X = make_rng(3, 42).normal(size=(12, 6))
    model = fit_pca(X)
    c = model.delta_min(3) / 500.0
    return X, model, build_hamiltonian(model, 3, c)


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
    for k in range(h.rank):
        out = evolve_full(h, _eigenstate_input(h, k))
        tgt = np.zeros(h.layout.dim, dtype=complex)
        tgt.reshape(2, h.layout.dim_r, h.layout.dim_n)[1, k, :6] = \
            model.components[:, k]
        mag2 = abs(np.vdot(tgt, out)) ** 2
        assert mag2 >= 1.0 - 150.0 * ratio2


def test_offresonant_sectors_stay_put(small_instance):
    _, model, h = small_instance
    ratio2 = (h.c / h.delta_min) ** 2
    for k in range(h.rank, 6):
        psi = _eigenstate_input(h, k)
        out = evolve_full(h, psi)
        mag2 = abs(np.vdot(psi, out)) ** 2
        assert mag2 >= 1.0 - 20.0 * ratio2


def test_epsilon_quarters_when_c_halves(sonar_features):
    e_large = _reduce(sonar_features, 16, 0.008).epsilon
    e_small = _reduce(sonar_features, 16, 0.004).epsilon
    assert 3.0 <= e_large / e_small <= 5.0


# ---------------------------------------------------------------------------
# evolution paths


def test_sector_stack_is_the_dense_hamiltonian_per_sector(small_instance):
    _, _, h = small_instance
    dim_r, dim_n = h.layout.dim_r, h.layout.dim_n
    lam, V = h.padded_basis()
    u = np.full(dim_r, dim_r ** -0.5)
    eig = h.sector_eig(lam, u)
    assert eig.vectors.shape == (dim_n, 2 * dim_r, 2 * dim_r)
    assert eig.vectors.dtype == float
    # <(p, j), v_k| H |(q, l), v_k> for every sector k, mapped into the
    # spread frame by diag(1, i) between the probe halves and diag(W, I)
    H = h.dense().reshape(2 * dim_r, dim_n, 2 * dim_r, dim_n)
    restricted = np.einsum("dk,adbe,ek->kab", V, H, V)
    frame = np.zeros((2 * dim_r, 2 * dim_r), dtype=complex)
    frame[:dim_r, :dim_r] = spread_operator(h.layout.r_qubits) / np.sqrt(dim_r)
    frame[dim_r:, dim_r:] = 1j * np.eye(dim_r)
    spread_frame = frame.conj().T @ restricted @ frame
    np.testing.assert_allclose(reconstruct(eig), spread_frame, atol=1e-12)
    # a sub-stack solves each of its sectors to the same bits
    part = h.sector_eig(lam[:3], u)
    assert np.array_equal(part.values, eig.values[:3])
    assert np.array_equal(part.vectors, eig.vectors[:3])


def test_blockwise_reduction_solves_one_stack(monkeypatch, rng):
    import qrdr.engine as engine

    calls = {}
    eig, spread = engine.hermitian_eig, engine.spread_operator

    def counted_eig(H, check=True):
        calls["eig"].append(np.shape(H))
        calls["corner"].append(H[:, -1, -1])   # hdiag[s - 1] + lam_k
        return eig(H, check)

    def counted_spread(r):
        calls["spread"] += 1
        return spread(r)

    monkeypatch.setattr(engine, "hermitian_eig", counted_eig)
    monkeypatch.setattr(engine, "spread_operator", counted_spread)
    X = rng.normal(size=(10, 6))
    # one real stacked eigensolve over the 6 populated sectors, not the 8
    # padded, and no Kronecker product; at R = 5 (r = 3) the levels j >= 5
    # evolve as one, so each block holds 2 (5 + 1) levels instead of 2^4
    model = fit_pca(X)
    default = engine.SECTOR_STACK_BYTES
    for rank, block in ((2, 4), (5, 12)):
        h = build_hamiltonian(model, rank, 1e-3)
        calls.update(eig=[], corner=[], spread=0)
        run_qrdr(h)
        assert calls["eig"] == [(6, block, block)] and calls["spread"] == 0
        # a budget of 4 blocks: stacks of 4 and 2 sectors, each sector
        # once and in order
        budget = 4 * 8 * block ** 2
        monkeypatch.setattr(engine, "SECTOR_STACK_BYTES", budget)
        calls.update(eig=[], corner=[])
        run_qrdr(h)
        monkeypatch.setattr(engine, "SECTOR_STACK_BYTES", default)
        assert calls["eig"] == [(4, block, block), (2, block, block)]
        assert all(8 * np.prod(shape) <= budget for shape in calls["eig"])
        corner = h.hdiag[block // 2 - 1] + model.eigenvalues
        assert np.array_equal(np.concatenate(calls["corner"]), corner)


def test_sector_stacks_move_no_bit(monkeypatch, sonar_features):
    import qrdr.engine as engine

    h = build_hamiltonian(fit_pca(sonar_features), 32, 1e-3)
    # R = 32: 60 populated sectors, 64 padded, of 64 x 64 blocks (32 KiB)
    monkeypatch.setattr(engine, "SECTOR_STACK_BYTES", 25 * 8 * 64 ** 2)
    stacks = h.sector_stacks(h.model.eigenvalues, np.ones(32))
    assert [eig.values.shape[0] for _, eig in stacks] == [25, 25, 10]
    psi = make_rng(5, 1).normal(size=(h.layout.dim, 3))
    split = h.probe_amplitudes(), run_qrdr(h), evolve_blockwise(h, psi)
    monkeypatch.setattr(engine, "SECTOR_STACK_BYTES", 2 ** 40)
    whole = h.probe_amplitudes(), run_qrdr(h), evolve_blockwise(h, psi)
    assert np.array_equal(split[0], whole[0])
    for name in ("reduced_state", "success_probability", "epsilon"):
        assert np.array_equal(getattr(split[1], name), getattr(whole[1], name))
    assert np.array_equal(split[2], whole[2])


def test_reduction_memory_is_bounded_by_the_sector_stacks(sonar_features):
    # with all 60 blocks of sonar at R = 32 in one stack the peak was
    # 4.00 MiB; the bounded stacks give 0.93 MiB
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_qrdr(build_hamiltonian(fit_pca(sonar_features), 32, 0.004))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


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
    _, V = h.padded_basis()
    for k in range(lay.dim_n):
        if k == 1:
            continue
        overlap = out @ V[:, k]
        assert np.abs(overlap).max() <= 1e-10


def test_paths_agree_on_sonar_truncation(sonar_features):
    X = sonar_features[:, :16]
    h = build_hamiltonian(fit_pca(X), 4, 2e-3)
    full, block = run_full(h), run_qrdr(h)
    assert abs(full.epsilon - block.epsilon) <= 1e-10
    assert abs(full.success_probability - block.success_probability) <= 1e-10
    np.testing.assert_allclose(full.reduced_state, block.reduced_state,
                               atol=1e-10)


# ---------------------------------------------------------------------------
# accuracy against the 40-digit sector evolution


@pytest.mark.parametrize("rank, sectors", [
    (4, None),
    # every resonant sector, the two past the boundary and the smallest
    (8, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 59]),
])
def test_reduction_is_within_rounding_of_the_exact_evolution(sonar_features,
                                                             rank, sectors):
    model = fit_pca(sonar_features)
    if sectors is not None:
        # the same Hamiltonian, with the data restricted to those sectors
        V = model.components[:, sectors]
        model = dataclasses.replace(model, data=sonar_features @ V @ V.T)
    h = build_hamiltonian(model, rank, 1e-3)
    ref, ref_upper = run_reference(h, sectors)
    out = run_qrdr(h)
    # eigenvalue rounding, about eps lam_1, dephases over t: 3.66e-10 here
    unit = np.finfo(float).eps * model.eigenvalues[0] * h.t_resonant
    upper = h.probe_amplitudes()
    if sectors is not None:
        upper = upper[:, sectors]
    assert np.abs(upper - ref_upper).max() <= 2.0 * unit
    assert np.abs(out.reduced_state - ref.reduced_state).max() <= 2.0 * unit
    assert abs(out.success_probability - ref.success_probability) <= \
        0.05 * unit


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
    for k in range(h.rank):
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
    model = fit_pca(X)
    np.testing.assert_allclose(model.components[:, 0], [1, 0, 0, 0], atol=1e-12)
    h = build_hamiltonian(model, 1, 1e-3)
    psi = make_rng(8, 0).normal(size=h.layout.dim_r * h.layout.dim_n)
    psi /= np.linalg.norm(psi)
    out = disentangle(psi, h)
    np.testing.assert_allclose(out, psi, atol=1e-12)


def test_disentangled_weight_concentrates(rng):
    X = rng.normal(size=(10, 8))
    out = _reduce(X, 4, 1e-3)
    assert out.residual_weight <= 2.0 * out.epsilon + 1e-12


# ---------------------------------------------------------------------------
# end-to-end runs


def test_random_instance_meets_error_bound():
    rng = make_rng(21, 0)
    for _ in range(5):
        X = rng.normal(size=(16, 8))
        model = fit_pca(X)
        out = run_qrdr(build_hamiltonian(model, 4, 1e-3))
        bound = 1.0 - 10.0 * (1e-3 / model.delta_min(4)) ** 2
        assert out.fidelity >= bound


def test_success_probability_tracks_variance(sonar_features):
    out = _reduce(sonar_features, 16, 0.004)
    assert abs(out.success_probability - out.ideal_probability) <= \
        out.epsilon + 0.01


def test_outcome_metrics_and_overrides(rng):
    X = rng.normal(size=(7, 6))
    out = _reduce(X, 2, 1e-3, r_qubits=3)
    assert out.layout.r_qubits == 3
    assert out.reduced_state.shape == (8 * 7,)
    assert np.linalg.norm(out.reduced_state) == pytest.approx(1.0)
    m = out.to_metrics()
    assert m["rank"] == 2
    assert m["fidelity"] == pytest.approx(1.0 - m["epsilon"])


# ---------------------------------------------------------------------------
# reduction entry point for downstream classifiers


def test_admissible_rank_stops_at_numerical_rank():
    model = fit_pca(_spectrum_matrix([4.0, 2.0, 1.0, 1e-12, 0, 0, 0, 0]))
    assert admissible_rank(model, 8) == 3
    assert admissible_rank(model, 2) == 2
    chosen = fit_pca(_spectrum_matrix([4.0, 2.0, 1.0, 1e-12]))
    build_hamiltonian(chosen, 3, chosen.delta_min(3) / REDUCTION_C_DIVISOR)
    with pytest.raises(ValueError, match="rank boundary"):
        build_hamiltonian(fit_pca(_spectrum_matrix([4.0, 2.0, 1.0, 0, 0])), 4,
                          1e-4)


def test_admissible_rank_skips_degenerate_levels():
    model = fit_pca(_spectrum_matrix([3.0, 2.0, 2.0, 1.0]))
    assert admissible_rank(model, 2) == 1     # boundary inside the pair
    assert admissible_rank(model, 3) == 1     # pair inside the targets
    with pytest.raises(ValueError, match="degenerate at the top"):
        admissible_rank(fit_pca(np.eye(4)), 4)
    with pytest.raises(ValueError, match="degenerate at the top"):
        admissible_rank(fit_pca(np.zeros((4, 4))), 4)     # no gap at all


def test_rank_decisions_do_not_depend_on_the_data_scale(sonar_features):
    # the spectrum scales as X^2, so degeneracy and the gap floor are
    # relative to lambda_1: scaling X moves no pair and no rank
    paired = _spectrum_matrix([3.0, 2.0, 2.0, 1.0])
    ranks = {}
    for scale in 10.0 ** np.arange(-5, 6):
        for name, X, max_ranks in (("sonar", sonar_features, (2, 16, 60)),
                                   ("paired", paired, (2, 3, 4))):
            model = fit_pca(scale * X)
            seen = (model.degenerate_pairs,
                    [admissible_rank(model, m) for m in max_ranks])
            assert ranks.setdefault(name, seen) == seen, (name, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # dephasing at the large scales
            assert reduce_rows(scale * sonar_features, 4)[1].rank == 16
    assert ranks["sonar"] == ([], [2, 16, 60])
    assert ranks["paired"] == ([(1, 2)], [1, 1, 1])


def test_reduce_rows_follow_the_target(rng):
    X = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 8))   # rank 3
    rows, out = reduce_rows(X, 2)
    assert out.rank == 3 and out.layout.r_qubits == 2
    gap = min(fit_pca(X).delta_min(3), 2.0 ** -2)    # spectral or probe gap
    assert out.c == pytest.approx(gap / REDUCTION_C_DIVISOR)
    bound = 10.0 / REDUCTION_C_DIVISOR ** 2    # 10 (c / gap)^2
    assert out.epsilon <= bound
    assert abs(out.success_probability - out.ideal_probability) <= \
        out.epsilon + 0.01
    assert rows.shape == (12, 4) and np.iscomplexobj(rows)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    assert np.max(np.abs(rows[:, 3]) ** 2) <= bound   # level past the rank
    target = out.target.reshape(4, 12).T
    target /= np.linalg.norm(target, axis=1, keepdims=True)
    overlap = np.abs(np.sum(target.conj() * rows, axis=1)) ** 2
    assert overlap.min() >= 1.0 - bound


@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_reduce_rows_success_tracks_variance_on_sonar(sonar_features, scale):
    # the coupling stays below the probe gap 2^-r at any data scale
    rows, out = reduce_rows(scale * sonar_features, 2)
    assert out.c <= 2.0 ** -2 / REDUCTION_C_DIVISOR
    assert abs(out.success_probability - out.ideal_probability) <= \
        out.epsilon + 0.01


def test_reduce_rows_warns_when_rounding_dephases(sonar_features):
    # at 1e5 x sonar, eps * lambda_1 / c is about 1.5 rad and epsilon 6.7e-3
    with pytest.warns(UserWarning, match="dephase the resonances"):
        _, out = reduce_rows(1e5 * sonar_features, 2)
    assert out.epsilon > 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, out = reduce_rows(sonar_features, 2)
    assert out.epsilon < 1e-6


def test_reduce_rows_fits_once(monkeypatch, rng):
    import qrdr.engine as engine

    calls = []

    def counted(X):
        calls.append(np.shape(X))
        return fit_pca(X)

    monkeypatch.setattr(engine, "fit_pca", counted)
    reduce_rows(rng.normal(size=(10, 6)), 2)
    assert calls == [(10, 6)]
