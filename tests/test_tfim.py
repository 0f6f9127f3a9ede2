import json

import numpy as np
import pytest

from qrdr.tfim import (TfimDataset, build_tfim, default_dataset_path,
                       generate_dataset, ground_state, load_dataset,
                       parity_operator, save_dataset, squared_magnetization)

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


def test_high_field_limit_is_minus_product():
    # ground state of +h sum X_i: every site in the -1 eigenstate of X
    gs = ground_state(4, 1.0, 50.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    target = minus
    for _ in range(3):
        target = np.kron(target, minus)
    assert abs(np.dot(gs.amplitudes, target)) ** 2 >= 0.999


# ---------------------------------------------------------------------------
# order parameter


def test_magnetization_polarized_and_uniform():
    n = 5
    polar = np.zeros(2 ** n)
    polar[0] = 1.0
    assert squared_magnetization(polar, n) == pytest.approx(1.0)
    uniform = np.full(2 ** n, 2.0 ** (-n / 2))
    assert squared_magnetization(uniform, n) == pytest.approx(1.0 / n)


def test_magnetization_separates_phases():
    ferro = ground_state(6, 1.0, 0.05)
    para = ground_state(6, 1.0, 3.0)
    assert squared_magnetization(ferro.amplitudes, 6) >= 0.8
    assert squared_magnetization(para.amplitudes, 6) <= 0.3


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
    path = default_dataset_path(tmp_path)
    assert path.name == "tfim_phase.jsonl"
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
