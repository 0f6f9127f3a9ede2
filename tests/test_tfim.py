import json
import re

import numpy as np
import pytest

from qrdr.tfim import (TfimDataset, build_tfim, generate_dataset,
                       ground_state, load_dataset, parity_operator,
                       save_dataset)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _site_operator(op, i, n):
    mats = [np.eye(2)] * n
    mats[i] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _chain_oracle(n, J, h):
    dim = 2 ** n
    H = np.zeros((dim, dim))
    for i in range(n - 1):
        H -= J * _site_operator(PAULI_Z, i, n) @ _site_operator(PAULI_Z, i + 1, n)
    for i in range(n):
        H += h * _site_operator(PAULI_X, i, n)
    return H


# ---------------------------------------------------------------------------
# Hamiltonian


def test_two_site_classical_spectrum():
    w = np.linalg.eigvalsh(build_tfim(2, J=1.0, h=1e-300))
    np.testing.assert_allclose(w, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_matrix_matches_kron_oracle():
    for n, J, h in [(2, 1.0, 0.5), (3, 1.0, 1.0), (3, 2.0, 0.3),
                    (4, 1.0, 2.0), (4, 0.7, 1.3)]:
        np.testing.assert_allclose(build_tfim(n, J, h), _chain_oracle(n, J, h),
                                   atol=1e-12)


def _loop_build_tfim(n, J, h):
    # the per-state loop that build_tfim vectorises, kept as its reference
    H = np.zeros((2 ** n, 2 ** n))
    for s in range(2 ** n):
        zz = 0.0
        for i in range(n - 1):
            za = 1 - 2 * ((s >> (n - 1 - i)) & 1)
            zb = 1 - 2 * ((s >> (n - 2 - i)) & 1)
            zz += za * zb
        H[s, s] = -J * zz
        for i in range(n):
            H[s ^ (1 << (n - 1 - i)), s] += h
    return H


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 10])
def test_matrix_equals_per_state_loop_bit_for_bit(n):
    for J, h in [(1.0, 1.0), (1.0, 0.0), (0.7, 1.3), (2.5, 0.37)]:
        built, ref = build_tfim(n, J, h), _loop_build_tfim(n, J, h)
        assert np.array_equal(built, ref)
        assert np.array_equal(np.signbit(built), np.signbit(ref))


def test_open_boundary_has_no_wrap_term():
    # closing the chain would add -J Z_0 Z_{n-1}, turning +2 into +1 here
    H = build_tfim(3, J=1.0, h=1e-300)
    assert H[0b101, 0b101] == pytest.approx(2.0)   # two frustrated bonds
    assert H[0b000, 0b000] == pytest.approx(-2.0)  # two aligned bonds


def test_parity_symmetry():
    for n, h in [(2, 0.5), (4, 1.0), (5, 2.0)]:
        H = build_tfim(n, 1.0, h)
        P = parity_operator(n)
        assert np.abs(H @ P - P @ H).max() <= 1e-12
        np.testing.assert_allclose(P @ P, np.eye(2 ** n), atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError, match="at least 2 sites"):
        build_tfim(1, 1.0, 1.0)
    with pytest.raises(ValueError, match="J"):
        build_tfim(2, 0.0, 1.0)
    with pytest.raises(ValueError, match="h"):
        build_tfim(2, 1.0, -0.5)
    with pytest.raises(ValueError,
                       match="field h must be non-negative and finite, got -1.0"):
        ground_state(4, 1.0, np.array([0.5, -1.0]))
    with pytest.raises(ValueError, match="1-D array of fields"):
        ground_state(4, 1.0, np.ones((2, 2)))


@pytest.mark.parametrize("J, h, cause", [
    (np.nan, 1.0, "coupling J"), (np.inf, 1.0, "coupling J"),
    (1.0, np.nan, "field h"), (1.0, np.inf, "field h"),
])
def test_validation_rejects_non_finite_parameters(J, h, cause):
    with pytest.raises(ValueError, match=f"{cause} must be .* finite"):
        build_tfim(2, J, h)
    with pytest.raises(ValueError, match=f"{cause} must be .* finite"):
        ground_state(2, J, h)


# ---------------------------------------------------------------------------
# ground states


def test_ground_state_matches_dense_solver():
    for n, h in [(2, 0.5), (4, 2.0)]:
        gs = ground_state(n, 1.0, h)
        w = np.linalg.eigvalsh(_chain_oracle(n, 1.0, h))
        assert gs.energy == pytest.approx(w[0], abs=1e-12)
        assert np.linalg.norm(gs.amplitudes) == pytest.approx(1.0)
        resid = _chain_oracle(n, 1.0, h) @ gs.amplitudes - gs.energy * gs.amplitudes
        assert np.abs(resid).max() <= 1e-10


def test_ground_state_sign_and_determinism():
    a = ground_state(4, 1.0, 0.8)
    b = ground_state(4, 1.0, 0.8)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert a.amplitudes[np.argmax(np.abs(a.amplitudes))] > 0


def test_zero_field_rejected():
    with pytest.raises(ValueError, match="doubly degenerate"):
        ground_state(3, 1.0, 0.0)
    with pytest.raises(ValueError,
                       match=r"h = 0 \(field 2\).*doubly degenerate"):
        ground_state(4, 1.0, np.array([0.5, 1.2, 0.0, 1.5]))


def _sector_oracle(n, J, h):
    # dense eigh of build_tfim on the basis (|r> + eta |~r>)/sqrt(2), r <
    # 2^(n-1), of parity eta = (-1)^n; the state lifted back and signed
    eta = (-1) ** n
    half = 2 ** (n - 1)
    B = np.zeros((2 ** n, half))
    B[np.arange(half), np.arange(half)] = 1 / np.sqrt(2)
    B[np.arange(half) ^ (2 ** n - 1), np.arange(half)] = eta / np.sqrt(2)
    w, U = np.linalg.eigh(B.T @ build_tfim(n, J, h) @ B)
    psi = B @ U[:, 0]
    return w[0], psi * np.sign(psi[np.argmax(np.abs(psi))])


def test_ground_states_match_dense_sector_solver_at_8_sites():
    fields = np.array([0.05, 0.2, 0.6, 0.95, 1.0, 1.05, 1.4, 1.8, 6.0])
    gs = ground_state(8, 1.0, fields)
    assert gs.amplitudes.shape == (fields.size, 256)
    for i, h in enumerate(fields):
        energy, psi = _sector_oracle(8, 1.0, h)
        assert abs(gs.energy[i] - energy) <= 1e-10
        assert np.abs(gs.amplitudes[i] - psi).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 10))
def test_ground_states_have_exact_parity(n):
    # for h > 0 the ground state has prod_i X_i = (-1)^n, odd n included
    fields = np.array([0.1, 0.9, 1.1, 3.0])
    gs = ground_state(n, 0.8, fields)
    P = parity_operator(n)
    for h, energy, psi in zip(fields, gs.energy, gs.amplitudes):
        assert np.array_equal(P @ psi, (-1) ** n * psi)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        H = build_tfim(n, 0.8, h)
        assert energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-12)
        assert np.abs(H @ psi - energy * psi).max() <= 1e-10


def test_energy_matches_free_fermion_solution_at_12_sites():
    # the open chain maps to free fermions whose single-particle energies
    # are twice the singular values of the bidiagonal M (h on the
    # diagonal, J above it): E0 = -sum_k sigma_k(M)
    n, J = 12, 1.0
    fields = np.array([0.3, 0.95, 1.05, 1.7])
    gs = ground_state(n, J, fields)
    for h, energy in zip(fields, gs.energy):
        M = np.diag(np.full(n, h)) + np.diag(np.full(n - 1, J), 1)
        oracle = -np.linalg.svd(M, compute_uv=False).sum()
        assert abs(energy - oracle) <= 1e-9


def test_field_array_agrees_with_one_field_at_a_time():
    # 30 fields span two solver blocks
    fields = np.linspace(0.2, 1.8, 30)
    gs = ground_state(6, 1.0, fields)
    for i, h in enumerate(fields):
        one = ground_state(6, 1.0, h)
        assert isinstance(one.energy, float) and one.amplitudes.shape == (64,)
        assert abs(one.energy - gs.energy[i]) <= 1e-12
        assert np.abs(one.amplitudes - gs.amplitudes[i]).max() <= 1e-12


def test_unconverged_solve_raises(monkeypatch):
    import qrdr.tfim as tfim

    monkeypatch.setattr(tfim, "_RESIDUAL_TOL", -1.0)   # no residual meets it
    with pytest.raises(RuntimeError, match="Lanczos did not converge"):
        ground_state(4, 1.0, 0.8)


def test_dataset_at_4_sites_survives_early_krylov_closure():
    # the Krylov space closes at 6 of the 8 sector dimensions (the
    # reflection-even subspace), so the run must stop on beta = 0
    ds = generate_dataset(n_sites=4)
    assert ds.count == 200 and np.isfinite(ds.features).all()
    for h, psi in zip(ds.ratios, ds.features):
        H = build_tfim(4, 1.0, h)
        energy = psi @ H @ psi
        assert np.abs(H @ psi - energy * psi).max() <= 1e-10
        assert energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-12)


def test_high_field_limit_is_minus_product():
    # ground state of +h sum X_i: every site in the -1 eigenstate of X
    gs = ground_state(4, 1.0, 50.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    target = minus
    for _ in range(3):
        target = np.kron(target, minus)
    assert abs(np.dot(gs.amplitudes, target)) ** 2 >= 0.999


# ---------------------------------------------------------------------------
# dataset generation


@pytest.fixture(scope="module")
def small_set():
    return generate_dataset(n_sites=4, count=12, seed=5)


def test_dataset_balance_and_order(small_set):
    ds = small_set
    assert ds.count == 12
    assert np.sum(ds.labels == 1) == np.sum(ds.labels == -1) == 6
    assert np.all(np.diff(ds.ratios) >= 0)
    np.testing.assert_array_equal(ds.labels, np.where(ds.ratios > 1.0, 1, -1))
    np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), 1.0,
                               atol=1e-12)


def test_dataset_respects_windows(small_set):
    ds = small_set
    lo, hi = ds.meta["ratio_range"]
    ex_lo, ex_hi = ds.meta["exclusion"]
    assert np.all((ds.ratios >= lo) & (ds.ratios <= hi))
    assert not np.any((ds.ratios > ex_lo) & (ds.ratios < ex_hi))


def test_dataset_deterministic(small_set):
    again = generate_dataset(n_sites=4, count=12, seed=5)
    np.testing.assert_array_equal(small_set.features, again.features)
    np.testing.assert_array_equal(small_set.ratios, again.ratios)
    other = generate_dataset(n_sites=4, count=12, seed=6)
    assert not np.array_equal(small_set.ratios, other.ratios)


def test_dataset_count_two():
    ds = generate_dataset(n_sites=2, count=2, seed=1)
    assert list(ds.labels) == [-1, 1]


def test_dataset_validation():
    with pytest.raises(ValueError, match="even"):
        generate_dataset(n_sites=2, count=7)
    with pytest.raises(ValueError, match="even"):
        generate_dataset(n_sites=2, count=0)
    with pytest.raises(ValueError, match="admissible ratio ranges"):
        generate_dataset(n_sites=2, count=4, ratio_range=(1.1, 1.8))
    with pytest.raises(ValueError, match="admissible ratio ranges"):
        generate_dataset(n_sites=2, count=4, exclusion=(1.2, 1.4))


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path, small_set):
    path = tmp_path / "tfim_phase.jsonl"
    save_dataset(path, small_set)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.features, small_set.features)
    np.testing.assert_array_equal(back.labels, small_set.labels)
    np.testing.assert_array_equal(back.ratios, small_set.ratios)
    assert back.n_sites == 4 and back.J == 1.0 and back.seed == 5
    assert back.meta == small_set.meta


def test_save_header_schema(tmp_path, small_set):
    path = tmp_path / "d.jsonl"
    save_dataset(path, small_set)
    with open(path) as fh:
        header = json.loads(fh.readline())
    assert header["kind"] == "tfim-phase"
    assert header["boundary"] == "open"
    assert header["count"] == 12
    assert header["n_sites"] == 4
    assert header["exclusion"] == [0.95, 1.05]


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "foreign.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "something-else"}) + "\n")
        fh.write(json.dumps({"x": 1}) + "\n")
    with pytest.raises(ValueError, match="not a phase dataset"):
        load_dataset(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_amplitude(tmp_path, small_set, value):
    path = tmp_path / "bad.jsonl"
    save_dataset(path, small_set)
    lines = path.read_text().splitlines()
    # line 0 is the header, so line 3 holds record 3
    for line, index, bad in ((3, 7, value), (6, 0, np.nan)):
        rec = json.loads(lines[line])
        rec["amplitudes"][index] = bad
        lines[line] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="record 3, amplitude 8: non-finite"):
        load_dataset(path)


def _edit_record(path, line, edit):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line])
    edit(rec)
    lines[line] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, cause", [
    (lambda rec: rec.update(label=0), "record 4: label 0 is not +1/-1"),
    (lambda rec: rec.update(label=2.5), "record 4: label 2.5 is not +1/-1"),
    (lambda rec: rec.pop("label"), "record 4: missing field 'label'"),
    (lambda rec: rec.pop("amplitudes"), "record 4: missing field 'amplitudes'"),
    (lambda rec: rec.pop("h_over_j"), "record 4: missing field 'h_over_j'"),
], ids=["label-0", "label-2.5", "no-label", "no-amplitudes", "no-ratio"])
def test_load_rejects_malformed_record(tmp_path, small_set, edit, cause):
    path = tmp_path / "bad.jsonl"
    save_dataset(path, small_set)
    _edit_record(path, 4, edit)    # line 0 is the header
    with pytest.raises(ValueError, match=re.escape(cause)):
        load_dataset(path)


@pytest.mark.parametrize("edit, cause", [
    (lambda header: header.pop("n_sites"), "header: missing field 'n_sites'"),
    (lambda header: header.update(n_sites=3),
     "3 sites need 8 amplitudes per record, got 16"),
    (lambda header: header.pop("count"), "header: missing field 'count'"),
    (lambda header: header.update(count=13), "header count 13 but 12 records"),
], ids=["no-sites", "wrong-sites", "no-count", "count-above-records"])
def test_load_rejects_malformed_header(tmp_path, small_set, edit, cause):
    path = tmp_path / "bad.jsonl"
    save_dataset(path, small_set)
    _edit_record(path, 0, edit)
    with pytest.raises(ValueError, match=re.escape(cause)):
        load_dataset(path)


def test_dataset_rejects_labels_other_than_plus_minus_one(small_set):
    labels = small_set.labels.copy()
    labels[2] = 0
    with pytest.raises(ValueError, match=r"record 3: label 0 is not \+1/-1"):
        TfimDataset(small_set.features, labels, small_set.ratios, 4, 1.0, 5)
