import csv
import math

import numpy as np
import pytest

from qrdr.dataset import make_rng
from qrdr.engine import build_hamiltonian, evolve_full, postselect_probe
from qrdr.pca import fit_pca
from qrdr.resonance import (DEFAULT_C_GRID, alpha_lower_bound,
                            offresonance_amplitude, offresonance_bound,
                            pearson, sweep_c)


# ---------------------------------------------------------------------------
# closed-form pieces


def test_offresonance_amplitude_values():
    assert offresonance_amplitude(0.01, 0.0, 1.0) == 0.0
    d = 0.01 * math.pi
    assert offresonance_amplitude(0.01, 1.0, 1.0) == \
        pytest.approx(d / math.sqrt(1 + d * d))
    # vanishes linearly with the coupling
    assert offresonance_amplitude(1e-8, 1.0, 0.5) == \
        pytest.approx(2e-8 * math.pi, rel=1e-6)


def test_offresonance_peak_below_bound():
    for c, w, det in [(0.01, 1.0, 0.3), (0.05, 2.0, 1.7), (0.2, 0.5, 0.21)]:
        assert offresonance_amplitude(c, w, det) < offresonance_bound(c, w, det)


def test_offresonance_zero_detuning_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        offresonance_amplitude(0.01, 1.0, 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        offresonance_bound(0.01, 1.0, 0.0)


# ---------------------------------------------------------------------------
# certified amplitude bound


def test_alpha_bound_single_component_is_exact():
    assert alpha_lower_bound(np.array([5.0, 1.0]), 1, 0.05) == 1.0


def test_alpha_bound_equally_spaced_spectrum():
    g = 2.0
    lam = g * np.arange(8, 0, -1, dtype=float)
    bound = alpha_lower_bound(lam, 8, g / 100.0)
    assert bound >= 1.0 - (math.pi / 100.0) ** 2 * (math.pi ** 2 / 3.0)
    assert bound < 1.0


def test_alpha_bound_certifies_simulated_transfer():
    # post-selected per-component weight from the actual dynamics must beat
    # the certificate built from the spectrum alone
    X = make_rng(3, 42).normal(size=(12, 6))
    model = fit_pca(X, 3)
    c = model.delta_min / 200.0
    h = build_hamiltonian(model, c)
    lay = h.layout
    bound = alpha_lower_bound(model.eigenvalues, 3, c, r_qubits=lay.r_qubits)
    assert 0.9 < bound < 1.0
    for k in range(3):
        psi = np.zeros(lay.dim, dtype=complex)
        psi.reshape(2, lay.dim_r, lay.dim_n)[0, 0, :6] = model.components[:, k]
        out = evolve_full(h, psi)
        tgt = np.zeros(lay.dim, dtype=complex)
        tgt.reshape(2, lay.dim_r, lay.dim_n)[1, k, :6] = model.components[:, k]
        prob, _ = postselect_probe(out, lay)
        assert abs(np.vdot(tgt, out)) ** 2 / prob >= bound


# ---------------------------------------------------------------------------
# correlation helper


def test_pearson_lines_and_constant():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="constant"):
        pearson(x, np.ones(4))


# ---------------------------------------------------------------------------
# coupling sweeps


@pytest.fixture(scope="module")
def sweep16(sonar_features):
    return sweep_c(sonar_features, 16)


@pytest.fixture(scope="module")
def sweep8(sonar_features):
    return sweep_c(sonar_features, 8)


def test_default_grid_is_geometric():
    assert DEFAULT_C_GRID == (0.001, 0.002, 0.004, 0.008, 0.016, 0.032)
    np.testing.assert_allclose(np.diff(np.log2(DEFAULT_C_GRID)), 1.0)


def test_sweep_full_grid_kept(sweep16):
    np.testing.assert_allclose(sweep16.c_values, DEFAULT_C_GRID)
    assert sweep16.skipped_c == []
    assert not sweep16.degenerate_fit
    assert np.all(np.diff(sweep16.epsilon) > 0)
    np.testing.assert_allclose(sweep16.fidelity, 1.0 - sweep16.epsilon,
                               atol=1e-12)


def test_sweep_quadratic_law_rank16(sweep16):
    assert sweep16.loglog_correlation() >= 0.95
    assert sweep16.loglog_correlation() == pytest.approx(0.999598, abs=2e-4)
    slope, _ = sweep16.power_law()
    assert 1.8 <= slope <= 2.2
    assert slope == pytest.approx(1.978, abs=5e-3)


def test_sweep_quadratic_law_rank8(sweep8):
    assert sweep8.loglog_correlation() >= 0.95
    slope, _ = sweep8.power_law()
    assert 1.8 <= slope <= 2.2
    assert sweep8.epsilon[2] == pytest.approx(5.032e-06, rel=1e-3)


def test_sweep_orders_unsorted_grid(sonar_features):
    res = sweep_c(sonar_features, 8, c_values=(0.004, 0.001))
    np.testing.assert_allclose(res.c_values, [0.001, 0.004])


def test_sweep_skips_inadmissible_couplings(sonar_features):
    with pytest.warns(UserWarning, match="inadmissible"):
        res = sweep_c(sonar_features, 32)
    assert res.skipped_c == [0.032]
    np.testing.assert_allclose(res.c_values, DEFAULT_C_GRID[:-1])
    m = res.to_metrics()
    assert m["skipped_c"] == [0.032]
    assert m["loglog_correlation"] is not None


def test_sweep_all_inadmissible_raises(rng):
    X = rng.normal(size=(8, 4))
    with pytest.warns(UserWarning, match="inadmissible"):
        with pytest.raises(ValueError, match="no admissible coupling"):
            sweep_c(X, 2, c_values=(50.0, 80.0))


def test_sweep_flags_exactly_compressible_data():
    rng = make_rng(11, 0)
    X = rng.normal(size=(9, 3)) @ rng.normal(size=(3, 8))
    res = sweep_c(X, 3, c_values=(1.25e-5, 2.5e-5, 5e-5))
    assert res.degenerate_fit
    m = res.to_metrics()
    assert m["degenerate_fit"] is True
    assert m["power_law_slope"] is None
    assert m["loglog_correlation"] is None


def test_sweep_metrics_schema(sweep8):
    m = sweep8.to_metrics()
    assert m["rank"] == 8
    assert len(m["c_values"]) == len(m["epsilon"]) == 6
    assert m["quadratic_correlation"] >= 0.99
    assert m["delta_min"] == pytest.approx(0.503108, abs=1e-5)
    assert 0.0 < m["ideal_probability"] <= 1.0


def test_sweep_csv_round_trip(tmp_path, sonar_features):
    res = sweep_c(sonar_features, 8, c_values=(0.002, 0.008))
    path = tmp_path / "sweep.csv"
    res.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["c"]) for r in rows] == [0.002, 0.008]
    for i, row in enumerate(rows):
        assert float(row["epsilon"]) == res.epsilon[i]
        assert float(row["fidelity"]) == res.fidelity[i]
        assert float(row["success_probability"]) == res.success_probability[i]
