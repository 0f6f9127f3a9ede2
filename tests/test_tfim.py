import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _chain_oracle(n, h):
    dim = 2 ** n
    H = np.zeros((dim, dim))
    for i in range(n - 1):
        H -= _site_operator(PAULI_Z, i, n) @ _site_operator(PAULI_Z, i + 1, n)
    for i in range(n):
        H += h * _site_operator(PAULI_X, i, n)
    return H


# ---------------------------------------------------------------------------
# Hamiltonian


def test_two_site_classical_spectrum():
    w = np.linalg.eigvalsh(build_tfim(2, h=1e-300))
    np.testing.assert_allclose(w, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_matrix_matches_kron_oracle():
    for n, h in [(2, 0.5), (3, 1.0), (3, 0.3 / 2.0), (4, 2.0), (4, 1.3 / 0.7)]:
        np.testing.assert_allclose(build_tfim(n, h), _chain_oracle(n, h),
                                   atol=1e-12)


def _loop_build_tfim(n, h):
    # the per-state loop that build_tfim vectorises, kept as its reference
    H = np.zeros((2 ** n, 2 ** n))
    for s in range(2 ** n):
        zz = 0
        for i in range(n - 1):
            za = 1 - 2 * ((s >> (n - 1 - i)) & 1)
            zb = 1 - 2 * ((s >> (n - 2 - i)) & 1)
            zz += za * zb
        H[s, s] = -zz
        for i in range(n):
            H[s ^ (1 << (n - 1 - i)), s] += h
    return H


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 10])
def test_matrix_equals_per_state_loop_bit_for_bit(n):
    for h in [1.0, 0.0, 1.3 / 0.7, 0.37 / 2.5]:
        built, ref = build_tfim(n, h), _loop_build_tfim(n, h)
        assert np.array_equal(built, ref)
        assert np.array_equal(np.signbit(built), np.signbit(ref))


def test_open_boundary_has_no_wrap_term():
    # closing the chain would add -Z_0 Z_{n-1}, turning +2 into +1 here
    H = build_tfim(3, h=1e-300)
    assert H[0b101, 0b101] == pytest.approx(2.0)   # two frustrated bonds
    assert H[0b000, 0b000] == pytest.approx(-2.0)  # two aligned bonds


def test_parity_symmetry():
    for n, h in [(2, 0.5), (4, 1.0), (5, 2.0)]:
        H = build_tfim(n, h)
        P = parity_operator(n)
        assert np.abs(H @ P - P @ H).max() <= 1e-12
        np.testing.assert_allclose(P @ P, np.eye(2 ** n), atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError, match="at least 2 sites"):
        build_tfim(1, 1.0)
    with pytest.raises(ValueError, match="h"):
        build_tfim(2, -0.5)
    with pytest.raises(ValueError,
                       match="field h must be non-negative and finite, got -1.0"):
        ground_state(4, np.array([0.5, -1.0]))
    with pytest.raises(ValueError, match="1-D array of fields"):
        ground_state(4, np.ones((2, 2)))


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_validation_rejects_non_finite_parameters(h):
    with pytest.raises(ValueError, match="field h must be .* finite"):
        build_tfim(2, h)
    with pytest.raises(ValueError, match="field h must be .* finite"):
        ground_state(2, h)


# ---------------------------------------------------------------------------
# ground states


def test_ground_state_matches_dense_solver():
    for n, h in [(2, 0.5), (4, 2.0)]:
        gs = ground_state(n, h)
        w = np.linalg.eigvalsh(_chain_oracle(n, h))
        assert gs.energy == pytest.approx(w[0], abs=1e-12)
        assert np.linalg.norm(gs.amplitudes) == pytest.approx(1.0)
        resid = _chain_oracle(n, h) @ gs.amplitudes - gs.energy * gs.amplitudes
        assert np.abs(resid).max() <= 1e-10


def test_ground_state_sign_and_determinism():
    a = ground_state(4, 0.8)
    b = ground_state(4, 0.8)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert a.amplitudes[np.argmax(np.abs(a.amplitudes))] > 0


def test_zero_field_rejected():
    with pytest.raises(ValueError, match="doubly degenerate"):
        ground_state(3, 0.0)
    with pytest.raises(ValueError,
                       match=r"h = 0 \(field 2\).*doubly degenerate"):
        ground_state(4, np.array([0.5, 1.2, 0.0, 1.5]))


def _sector_oracle(n, h):
    # dense eigh of build_tfim on the basis (|r> + eta |~r>)/sqrt(2), r <
    # 2^(n-1), of parity eta = (-1)^n; the state lifted back and signed
    eta = (-1) ** n
    half = 2 ** (n - 1)
    B = np.zeros((2 ** n, half))
    B[np.arange(half), np.arange(half)] = 1 / np.sqrt(2)
    B[np.arange(half) ^ (2 ** n - 1), np.arange(half)] = eta / np.sqrt(2)
    w, U = np.linalg.eigh(B.T @ build_tfim(n, h) @ B)
    psi = B @ U[:, 0]
    return w[0], psi * np.sign(psi[np.argmax(np.abs(psi))])


def test_ground_states_match_dense_sector_solver_at_8_sites():
    fields = np.array([0.05, 0.2, 0.6, 0.95, 1.0, 1.05, 1.4, 1.8, 6.0])
    gs = ground_state(8, fields)
    assert gs.amplitudes.shape == (fields.size, 256)
    for i, h in enumerate(fields):
        energy, psi = _sector_oracle(8, h)
        assert abs(gs.energy[i] - energy) <= 1e-10
        assert np.abs(gs.amplitudes[i] - psi).max() <= 1e-10


@pytest.mark.parametrize("n", range(2, 10))
def test_ground_states_have_exact_parity(n):
    # for h > 0 the ground state has prod_i X_i = (-1)^n, odd n included
    fields = np.array([0.1, 0.9, 1.1, 3.0]) / 0.8
    gs = ground_state(n, fields)
    P = parity_operator(n)
    for h, energy, psi in zip(fields, gs.energy, gs.amplitudes):
        assert np.array_equal(P @ psi, (-1) ** n * psi)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        H = build_tfim(n, h)
        assert energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-12)
        assert np.abs(H @ psi - energy * psi).max() <= 1e-10


def test_energy_matches_free_fermion_solution_at_12_sites():
    # the open chain maps to free fermions whose single-particle energies
    # are twice the singular values of the bidiagonal M (h on the
    # diagonal, J = 1 above it): E0 = -sum_k sigma_k(M)
    n = 12
    fields = np.array([0.3, 0.95, 1.05, 1.7])
    gs = ground_state(n, fields)
    for h, energy in zip(fields, gs.energy):
        M = np.diag(np.full(n, h)) + np.diag(np.ones(n - 1), 1)
        oracle = -np.linalg.svd(M, compute_uv=False).sum()
        assert abs(energy - oracle) <= 1e-9


def test_field_array_agrees_with_one_field_at_a_time():
    # 62 fields in an order that jumps between small and large ones span
    # three solver blocks, so some fields start from a neighbour's state
    # and some from the secant through two; 1.8 appears twice
    grid = np.linspace(0.2, 1.8, 57)
    fields = np.concatenate([[0.05, 6.0, 0.95, 1.05, 1.8],
                             grid[np.arange(57) * 23 % 57]])
    gs = ground_state(6, fields)
    for i, h in enumerate(fields):
        one = ground_state(6, h)
        assert isinstance(one.energy, float) and one.amplitudes.shape == (64,)
        assert abs(one.energy - gs.energy[i]) <= 1e-12
        assert np.abs(one.amplitudes - gs.amplitudes[i]).max() <= 1e-12


@functools.lru_cache(maxsize=None)
def _dense_ground_energy(n, k):
    # the lowest eigenvalue of the dense matrix at h = k/8.  H commutes with
    # the flip r -> ~r, so on the bases (|r> +/- |~r>)/sqrt(2), r < 2^(n-1),
    # it splits exactly into the two parity blocks H[r, r'] +/- H[r, ~r']
    H = build_tfim(n, k / 8)
    half = 2 ** (n - 1)
    same, flipped = H[:half, :half], H[:half, half:][:, ::-1]
    return min(np.linalg.eigvalsh(same + flipped)[0],
               np.linalg.eigvalsh(same - flipped)[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 10),
       steps=st.lists(st.integers(1, 48), min_size=26, max_size=76))
def test_every_continued_state_is_the_ground_state(n, steps):
    # 26 to 76 fields on the grid k/8 in (0, 6], repeats included, in the
    # drawn order, span two to four blocks: no warm start may settle on an
    # excited state of the sector
    fields = np.array(steps) / 8
    gs = ground_state(n, fields)
    for k, h, energy, psi in zip(steps, fields, gs.energy, gs.amplitudes):
        assert abs(energy - _dense_ground_energy(n, k)) <= 1e-12
        assert np.array_equal(psi[::-1], (-1) ** n * psi)
        residual = build_tfim(n, h) @ psi - energy * psi
        assert np.linalg.norm(residual) <= 1e-12 * (n - 1 + h * n)


def test_unconverged_solve_raises(monkeypatch):
    import qrdr.tfim as tfim

    monkeypatch.setattr(tfim, "_RESIDUAL_TOL", -1.0)   # no residual meets it
    with pytest.raises(RuntimeError, match="Lanczos did not converge"):
        ground_state(4, 0.8)


def test_dataset_at_4_sites_survives_early_krylov_closure():
    # the Krylov space closes at 6 of the 8 sector dimensions (the
    # reflection-even subspace), so the run must stop on beta = 0
    ds = generate_dataset(n_sites=4)
    assert ds.count == 200 and np.isfinite(ds.features).all()
    for h, psi in zip(ds.ratios, ds.features):
        H = build_tfim(4, h)
        energy = psi @ H @ psi
        assert np.abs(H @ psi - energy * psi).max() <= 1e-10
        assert energy == pytest.approx(np.linalg.eigvalsh(H)[0], abs=1e-12)


def test_high_field_limit_is_minus_product():
    # ground state of +h sum X_i: every site in the -1 eigenstate of X
    gs = ground_state(4, 50.0)
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
    lo, hi = ds.ratio_range
    ex_lo, ex_hi = ds.exclusion
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


WINDOW = ("need 0 < ratio_range[0] < exclusion[0] < 1 < exclusion[1] < "
          "ratio_range[1]")


def test_dataset_validation():
    with pytest.raises(ValueError, match="even"):
        generate_dataset(n_sites=2, count=7)
    with pytest.raises(ValueError, match="even"):
        generate_dataset(n_sites=2, count=0)
    with pytest.raises(ValueError, match=re.escape(WINDOW)):
        generate_dataset(n_sites=2, count=4, ratio_range=(1.1, 1.8))
    with pytest.raises(ValueError, match=re.escape(WINDOW)):
        generate_dataset(n_sites=2, count=4, exclusion=(1.2, 1.4))


@pytest.mark.parametrize("low", [-0.5, 0.0])
def test_dataset_window_starts_above_zero(low):
    # a field at or below zero has no unique ground state to label
    with pytest.raises(ValueError, match=re.escape(
            f"{WINDOW}, got [{low}, 1.8] and [0.95, 1.05]")):
        generate_dataset(n_sites=2, count=4, ratio_range=(low, 1.8))


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path, small_set):
    path = tmp_path / "tfim_phase.jsonl"
    save_dataset(path, small_set)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.features, small_set.features)
    np.testing.assert_array_equal(back.labels, small_set.labels)
    np.testing.assert_array_equal(back.ratios, small_set.ratios)
    assert back.n_sites == 4 and back.seed == 5
    assert back.ratio_range == small_set.ratio_range == [0.2, 1.8]
    assert back.exclusion == small_set.exclusion == [0.95, 1.05]


def test_save_header_schema(tmp_path, small_set):
    path = tmp_path / "d.jsonl"
    save_dataset(path, small_set)
    with open(path) as fh:
        header = json.loads(fh.readline())
    assert header["kind"] == "tfim-phase"
    assert header["boundary"] == "open"
    assert header["count"] == 12
    assert header["n_sites"] == 4
    assert header["J"] == 1.0
    assert header["exclusion"] == [0.95, 1.05]


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty.jsonl: empty file"):
        load_dataset(path)


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
    (lambda rec: rec.update(label=1), "record 4: label +1 contradicts "
     "h/J = 0.6680562329928319 (+1 exactly when h/J > 1)"),
    (lambda rec: rec.pop("label"), "record 4: missing field 'label'"),
    (lambda rec: rec.pop("amplitudes"), "record 4: missing field 'amplitudes'"),
    (lambda rec: rec.pop("h_over_j"), "record 4: missing field 'h_over_j'"),
    (lambda rec: rec.update(h_over_j=float("nan")),
     "record 4: h/J = nan is not a finite positive number"),
    (lambda rec: rec.update(h_over_j=float("inf"), label=1),
     "record 4: h/J = inf is not a finite positive number"),
    (lambda rec: rec.update(h_over_j=-0.2),
     "record 4: h/J = -0.2 is not a finite positive number"),
    (lambda rec: rec.update(h_over_j=0),
     "record 4: h/J = 0.0 is not a finite positive number"),
    (lambda rec: rec.update(h_over_j="0.214"),
     "record 4: h/J = '0.214' is not a number"),
    (lambda rec: rec.update(h_over_j=True),
     "record 4: h/J = True is not a number"),
    (lambda rec: rec["amplitudes"].__setitem__(2, "0.5"),
     "record 4, amplitude 3: '0.5' is not a number"),
    (lambda rec: rec["amplitudes"].__setitem__(2, True),
     "record 4, amplitude 3: True is not a number"),
    (lambda rec: rec["amplitudes"].__setitem__(2, None),
     "record 4, amplitude 3: None is not a number"),
    (lambda rec: rec["amplitudes"].pop(),
     "record 4: 4 sites need 16 amplitudes per record, got 15"),
    (lambda rec: rec.update(amplitudes=0.5),
     "record 4: 4 sites need 16 amplitudes per record, got 0.5"),
    (lambda rec: rec.update(label=True), "record 4: label True is not a number"),
], ids=["label-0", "label-2.5", "label-against-ratio", "no-label",
        "no-amplitudes", "no-ratio", "ratio-nan", "ratio-inf",
        "ratio-negative", "ratio-zero", "ratio-string", "ratio-bool",
        "amplitude-string", "amplitude-true", "amplitude-null",
        "amplitudes-too-few", "amplitudes-not-a-list", "label-bool"])
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
    (lambda header: header.update(n_sites=4.7),
     "header: n_sites 4.7 is not an integer"),
    (lambda header: header.update(n_sites=4.0),
     "header: n_sites 4.0 is not an integer"),
    (lambda header: header.update(n_sites="4"),
     "header: n_sites '4' is not an integer"),
    (lambda header: header.update(n_sites=100000),
     "header: n_sites 100000 is outside 0 .. 62"),
    (lambda header: header.update(n_sites=-1),
     "header: n_sites -1 is outside 0 .. 62"),
    (lambda header: header.update(seed=5.5),
     "header: seed 5.5 is not an integer"),
    (lambda header: header.update(seed=True),
     "header: seed True is not an integer"),
    (lambda header: header.update(count=12.0),
     "header: count 12.0 is not an integer"),
    (lambda header: header.update(J=float("nan")),
     "header: J nan is not 1.0, the energy unit"),
    (lambda header: header.update(J=2.5),
     "header: J 2.5 is not 1.0, the energy unit"),
    (lambda header: header.update(J=True), "header: J True is not a number"),
    (lambda header: header.update(J="1"), "header: J '1' is not a number"),
    (lambda header: header.pop("J"), "header: missing field 'J'"),
    (lambda header: header.update(ratio_range=[5, -1]),
     f"{WINDOW}, got [5, -1] and [0.95, 1.05]"),
    (lambda header: header.update(exclusion="x"),
     "header: exclusion 'x' is not two numbers"),
    (lambda header: header.update(ratio_range=[0.2, True]),
     "header: ratio_range [0.2, True] is not two numbers"),
    (lambda header: header.pop("ratio_range"),
     "header: missing field 'ratio_range'"),
    (lambda header: header.pop("exclusion"),
     "header: missing field 'exclusion'"),
], ids=["no-sites", "wrong-sites", "no-count", "count-above-records",
        "sites-fraction", "sites-float", "sites-string", "sites-huge",
        "sites-negative", "seed-fraction",
        "seed-bool", "count-float", "j-nan", "j-2.5", "j-bool", "j-string",
        "no-j", "ratio-range-reversed", "exclusion-string",
        "ratio-range-bool", "no-ratio-range", "no-exclusion"])
def test_load_rejects_malformed_header(tmp_path, small_set, edit, cause):
    path = tmp_path / "bad.jsonl"
    save_dataset(path, small_set)
    _edit_record(path, 0, edit)
    with pytest.raises(ValueError, match=re.escape(cause)):
        load_dataset(path)


def test_load_names_the_line_that_is_not_json(tmp_path, small_set):
    # the default file cut at byte 5,000 ends inside its first record
    path = tmp_path / "cut.jsonl"
    save_dataset(path, generate_dataset())
    path.write_bytes(path.read_bytes()[:5000])
    with pytest.raises(ValueError, match=re.escape(
            "record 1 (line 2): not valid JSON: Expecting ',' delimiter at "
            "column 4854")):
        load_dataset(path)
    save_dataset(path, small_set)
    path.write_text("\n{\n" + path.read_text())
    with pytest.raises(ValueError, match=re.escape(
            "header (line 2): not valid JSON")):
        load_dataset(path)


def test_dataset_rejects_sites_no_record_can_hold(small_set):
    with pytest.raises(ValueError,
                       match="n_sites 100000 is outside 0 .. 62"):
        TfimDataset(small_set.features, small_set.labels, small_set.ratios,
                    100000, 5, [0.2, 1.8], [0.95, 1.05])


def test_dataset_rejects_labels_other_than_plus_minus_one(small_set):
    labels = small_set.labels.copy()
    labels[2] = 0
    with pytest.raises(ValueError, match=r"record 3: label 0 is not \+1/-1"):
        TfimDataset(small_set.features, labels, small_set.ratios, 4, 5,
                    [0.2, 1.8], [0.95, 1.05])
