import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (apply_branches, branch_matrix, conv_lcu, pool_discard,
                     read_vector, readout_expectation)
from qrdr import qcnn
from qrdr.dataset import make_rng
from qrdr.qcnn import (_BRANCH_CLASS, ANCILLA_DIM, ANCILLA_QUBITS,
                       BranchStack, MlpModel, N_ANSATZ_PARAMS, QcnnModel,
                       SplitData, TrainConfig, _forward_parts,
                       accuracy_from_logits, bce_loss,
                       branch_sources, branch_weights, fd_gradient,
                       lcu_jacobian, logits, loss_and_grad, mlp_baseline,
                       mlp_logits, mlp_loss_and_grad, n_readout,
                       prepare_ansatz, prepare_lcu, readout_features, train)


def _unit_rows(rng, m, dim):
    Z = rng.normal(size=(m, dim))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def _complex_unit_rows(rng, m, dim):
    Z = rng.normal(size=(m, dim)) + 1j * rng.normal(size=(m, dim))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# LCU branches


def shift_operator(r_half: int) -> np.ndarray:
    """Cyclic increment E1 on 2^r_half basis states: E1|j> = |j+1 mod d>."""
    d = 2 ** r_half
    E = np.zeros((d, d))
    E[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return E


def test_branch_matrices_match_kron_forms():
    E1 = shift_operator(2)
    mats = (E1, np.eye(4), E1.T)
    for a in range(3):
        for b in range(3):
            np.testing.assert_array_equal(branch_matrix(4, 3 * a + b),
                                          np.kron(mats[a], mats[b]))
    for k in range(9, 16):
        np.testing.assert_array_equal(branch_matrix(4, k), np.eye(16))


def test_branches_are_permutations():
    for k in range(16):
        Q = branch_matrix(4, k)
        np.testing.assert_array_equal(Q.sum(axis=0), np.ones(16))
        np.testing.assert_array_equal(Q.sum(axis=1), np.ones(16))
    with pytest.raises(ValueError, match="even"):
        branch_sources(3)


def test_branch_sources_apply_like_matrices(rng):
    src = branch_sources(2)
    z = rng.normal(size=4)
    for k in range(16):
        np.testing.assert_allclose(z[src[k]], branch_matrix(2, k) @ z)


@pytest.mark.parametrize("r", [2, 4, 8])
def test_folded_branches_match_the_sum_over_all_sixteen(rng, r):
    # the identity branches (4 and 9..15) share one scaled copy; the sum
    # must still be sum_k w_k Q_k over every branch
    dense = np.array([branch_matrix(r, k) for k in range(16)])
    Z = _complex_unit_rows(rng, 5, 2 ** r)
    for weights in (branch_weights(prepare_lcu(rng.uniform(-3, 3, 28))),
                    rng.uniform(0.0, 1.0, 16), np.eye(16)[4]):
        expect = Z @ np.einsum("k,kij->ij", weights, dense).T
        got = apply_branches(weights, Z, branch_sources(r))
        assert np.abs(got - expect).max() <= 1e-15


def _gather_gradient(model, Z, labels):
    # loss_and_grad's chain rule with the per-call gathers that the branch
    # stack replaced: V by apply_branches, dL/dw by one gather per product
    sources = branch_sources(model.r)
    a, da = lcu_jacobian(model.theta)
    V = apply_branches(branch_weights(a), Z, sources)
    P = np.abs(V) ** 2
    G = P.sum(axis=1)
    feats = readout_features(model.r // 2)
    dh = feats.shape[1]
    F = P.reshape(len(Z), dh, dh).sum(axis=2) @ feats.T
    e = (F @ model.readout) / G
    dl_de = (1.0 / (1.0 + np.exp(-e)) - (labels + 1) / 2.0) / len(Z)
    U = (dl_de / G)[:, None] * V.conj() * (
        np.repeat(model.readout @ feats, dh)[None, :] - e[:, None])
    dl_dw = 2.0 * np.einsum("ij,ikj->k", U, Z[:, sources[:9]]).real
    grad_theta = dl_dw[_BRANCH_CLASS] @ (2.0 * (a.conj()[:, None] * da).real)
    return V, np.concatenate([grad_theta, dl_de @ (F / G[:, None])])


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("r", [2, 4, 8])
def test_branch_stack_matches_the_gather_form(rng, r, complex_rows):
    # V = w . stack and dL/dw = 2 Re(stack . U) are one product each; they
    # must agree with gathering Q_k z per call, and a minibatch of the
    # stack must be the stack of the minibatch
    Z = (_complex_unit_rows if complex_rows else _unit_rows)(rng, 12, 2 ** r)
    labels = rng.choice([-1, 1], size=12)
    model = QcnnModel.initial(r, 2).with_params(
        rng.uniform(-1.0, 1.0, N_ANSATZ_PARAMS + n_readout(r)))
    stack = BranchStack.of(r, Z)
    assert stack.images.shape == (9, 12, 2 ** r)
    V_ref, grad_ref = _gather_gradient(model, Z, labels)
    V = _forward_parts(model, stack.images, prepare_lcu(model.theta))[3]
    assert np.abs(V - V_ref).max() <= 1e-15
    assert np.abs(loss_and_grad(model, stack, labels)[1] - grad_ref).max() \
        <= 1e-15
    idx = rng.permutation(12)[:5]
    batch = stack[idx]
    assert batch.images.flags.c_contiguous
    assert np.array_equal(batch.images, BranchStack.of(r, Z[idx]).images)
    assert np.array_equal(loss_and_grad(model, batch, labels[idx])[1],
                          loss_and_grad(model, Z[idx], labels[idx])[1])


def test_branch_stack_rejects_rows_of_another_register(rng):
    with pytest.raises(ValueError, match="2\\^4 = 16 amplitudes, got 8"):
        logits(QcnnModel.initial(4, 0), _unit_rows(rng, 3, 8))


def test_cached_tables_are_read_only():
    # one array per size serves every call, so no caller may write to it
    assert branch_sources(4) is branch_sources(4)
    assert readout_features(2) is readout_features(2)
    with pytest.raises(ValueError, match="read-only"):
        branch_sources(4)[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        readout_features(2)[0, 0] = 0.0


# ---------------------------------------------------------------------------
# ansatz state preparation

# gate-by-gate reference for the stage-matrix ansatz: each gate acts on a
# (B, 16) stack of states with one angle per state; qubit 0 is the MSB


def _apply_ry(psi, theta, q):
    c = np.cos(theta / 2.0)[:, None, None]
    s = np.sin(theta / 2.0)[:, None, None]
    psi = psi.reshape(psi.shape[0], 2 ** q, 2, -1)
    a, b = psi[:, :, 0], psi[:, :, 1]
    return np.stack([c * a - s * b, s * a + c * b], axis=2).reshape(
        psi.shape[0], -1)


def _apply_rz(psi, theta, q):
    phase = np.exp(0.5j * theta)[:, None, None]
    psi = psi.reshape(psi.shape[0], 2 ** q, 2, -1)
    return np.stack([psi[:, :, 0] * phase.conj(), psi[:, :, 1] * phase],
                    axis=2).reshape(psi.shape[0], -1)


def _apply_cnot(psi, ctrl, tgt, nq):
    s = np.arange(2 ** nq)
    flip = (s >> (nq - 1 - ctrl)) & 1
    return psi[:, s ^ (flip << (nq - 1 - tgt))]


def _gate_by_gate_ansatz(theta):
    """Three layers of Ry and Rz on each qubit plus the CNOT ring
    q -> q + 1 (mod 4), then a final Ry layer, one gate at a time."""
    theta = np.asarray(theta, dtype=float)
    rows = theta.reshape(-1, N_ANSATZ_PARAMS)
    psi = np.zeros((rows.shape[0], ANCILLA_DIM), dtype=complex)
    psi[:, 0] = 1.0
    p = 0
    for layer in range(4):
        for q in range(ANCILLA_QUBITS):
            psi = _apply_ry(psi, rows[:, p], q)
            p += 1
        if layer == 3:
            break
        for q in range(ANCILLA_QUBITS):
            psi = _apply_rz(psi, rows[:, p], q)
            p += 1
        for q in range(ANCILLA_QUBITS):
            psi = _apply_cnot(psi, q, (q + 1) % ANCILLA_QUBITS, ANCILLA_QUBITS)
    return psi.reshape(theta.shape[:-1] + (ANCILLA_DIM,))


def test_stage_ansatz_matches_gate_by_gate_oracle(rng):
    for theta in (np.zeros(N_ANSATZ_PARAMS),
                  *rng.uniform(-math.pi, math.pi, (8, N_ANSATZ_PARAMS)),
                  *rng.uniform(-10.0, 10.0, (3, N_ANSATZ_PARAMS))):
        got = prepare_ansatz(theta)
        assert got.shape == (ANCILLA_DIM,)
        assert np.abs(got - _gate_by_gate_ansatz(theta)).max() <= 1e-14


def _parameter_shift_jacobian(theta):
    # every angle sits in one exp(-i theta G / 2) with G^2 = 1, so
    # da/dtheta_p = (a(theta + pi/2 e_p) - a(theta - pi/2 e_p)) / (2 sqrt 2)
    steps = (math.pi / 2.0) * np.eye(N_ANSATZ_PARAMS)
    shifted = np.array([prepare_lcu(t)
                        for t in theta + np.vstack([steps, -steps])])
    return (shifted[:N_ANSATZ_PARAMS]
            - shifted[N_ANSATZ_PARAMS:]).T / (2.0 * math.sqrt(2.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(theta=st.lists(st.floats(-math.pi, math.pi),
                      min_size=N_ANSATZ_PARAMS, max_size=N_ANSATZ_PARAMS))
def test_lcu_jacobian_matches_parameter_shift(theta):
    theta = np.array(theta)
    a, da = lcu_jacobian(theta)
    assert da.shape == (ANCILLA_DIM, N_ANSATZ_PARAMS)
    assert np.abs(a - prepare_lcu(theta)).max() <= 1e-14
    assert np.abs(da - _parameter_shift_jacobian(theta)).max() <= 1e-14


def test_lcu_jacobian_takes_one_parameter_vector():
    # so do the stages before it: a (B, 28) batch of vectors is rejected
    for stage in (prepare_ansatz, prepare_lcu, lcu_jacobian):
        with pytest.raises(ValueError, match="one parameter vector"):
            stage(np.zeros((2, N_ANSATZ_PARAMS)))
    with pytest.raises(ValueError, match="28"):
        lcu_jacobian(np.zeros(27))


def test_ansatz_zero_parameters_is_vacuum():
    psi = prepare_ansatz(np.zeros(N_ANSATZ_PARAMS))
    expect = np.zeros(ANCILLA_DIM)
    expect[0] = 1.0
    np.testing.assert_allclose(psi, expect, atol=1e-15)


def test_ansatz_unit_norm_and_size_check(rng):
    theta = rng.uniform(-2.0, 2.0, N_ANSATZ_PARAMS)
    psi = prepare_ansatz(theta)
    assert psi.shape == (ANCILLA_DIM,)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="28"):
        prepare_ansatz(np.zeros(27))


def test_branch_weights_normalized(rng):
    theta = rng.uniform(-1.0, 1.0, N_ANSATZ_PARAMS)
    w = branch_weights(prepare_ansatz(theta))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)
    with pytest.raises(ValueError, match="16"):
        branch_weights(np.zeros(8))


def test_prepare_lcu_starts_uniform_and_moves_at_first_order():
    zero = np.zeros(N_ANSATZ_PARAMS)
    np.testing.assert_allclose(branch_weights(prepare_lcu(zero)),
                               np.full(ANCILLA_DIM, 1.0 / ANCILLA_DIM),
                               atol=1e-15)
    h = 1e-4
    step = np.zeros(N_ANSATZ_PARAMS)
    step[N_ANSATZ_PARAMS - 1] = h       # a final-layer Ry angle

    def slope(prepare):
        up = branch_weights(prepare(step))
        dn = branch_weights(prepare(-step))
        return np.abs(up - dn).max() / (2.0 * h)

    assert slope(prepare_ansatz) <= 1e-10      # |0000> is a critical point
    assert slope(prepare_lcu) >= 0.05          # exactly 1/16 here
    for theta in (zero, make_rng(3, 1).uniform(-1.0, 1.0, N_ANSATZ_PARAMS)):
        assert np.linalg.norm(prepare_lcu(theta)) == pytest.approx(1.0,
                                                                   abs=1e-12)


# ---------------------------------------------------------------------------
# convolution


def test_conv_single_branch_is_plain_shift(rng):
    z = _unit_rows(rng, 1, 16)[0]
    prob, out = conv_lcu(z, prepare_ansatz(np.zeros(N_ANSATZ_PARAMS)))
    assert prob == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out, branch_matrix(4, 0) @ z, atol=1e-12)


def test_conv_identity_branch(rng):
    z = _unit_rows(rng, 1, 16)[0]
    ancilla = np.zeros(ANCILLA_DIM)
    ancilla[4] = 1.0
    prob, out = conv_lcu(z, ancilla)
    assert prob == pytest.approx(1.0)
    np.testing.assert_allclose(out, z, atol=1e-12)


def test_conv_uniform_mixture_matches_dense_oracle(rng):
    z = _unit_rows(rng, 1, 16)[0]
    ancilla = np.zeros(ANCILLA_DIM)
    ancilla[:9] = 1.0 / 3.0
    dense = sum((1.0 / 9.0) * branch_matrix(4, k) for k in range(9))
    image = dense @ z
    prob, out = conv_lcu(z, ancilla)
    assert prob == pytest.approx(float(image @ image), abs=1e-12)
    np.testing.assert_allclose(out, image / np.linalg.norm(image), atol=1e-12)


def test_conv_total_cancellation_raises():
    z = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    ancilla = np.zeros(ANCILLA_DIM)
    ancilla[3] = ancilla[4] = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError, match="too small"):
        conv_lcu(z, ancilla)


def test_conv_rejects_bad_state_size():
    with pytest.raises(ValueError, match="power of two"):
        conv_lcu(np.ones(6) / math.sqrt(6.0),
                 prepare_ansatz(np.zeros(N_ANSATZ_PARAMS)))


# ---------------------------------------------------------------------------
# pooling and readout


def test_pool_product_state(rng):
    phi = _unit_rows(rng, 1, 4)[0]
    chi = _unit_rows(rng, 1, 4)[0]
    rho = pool_discard(np.kron(phi, chi))
    np.testing.assert_allclose(rho, np.outer(phi, phi), atol=1e-12)


def test_pool_bell_pair_is_maximally_mixed():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(pool_discard(bell), np.eye(2) / 2.0, atol=1e-12)


def test_pool_density_properties(rng):
    state = _unit_rows(rng, 1, 16)[0]
    rho = pool_discard(state)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    with pytest.raises(ValueError, match="even"):
        pool_discard(np.ones(8) / math.sqrt(8.0))


def test_readout_sizes():
    assert n_readout(4) == 4
    assert n_readout(8) == 11


def test_readout_feature_rows():
    feats = readout_features(2)
    np.testing.assert_array_equal(feats[0], [1, 1, 1, 1])
    np.testing.assert_array_equal(feats[1], [1, 1, -1, -1])
    np.testing.assert_array_equal(feats[2], [1, -1, 1, -1])
    np.testing.assert_array_equal(feats[3], [1, -1, -1, 1])


def test_readout_expectation_cases(rng):
    rho0 = np.zeros((4, 4))
    rho0[0, 0] = 1.0
    assert readout_expectation(rho0, np.array([0.0, 1.0, 1.0, 0.0])) == \
        pytest.approx(2.0)
    mixed = np.eye(4) / 4.0
    coeffs = rng.normal(size=4)
    assert readout_expectation(mixed, coeffs) == pytest.approx(coeffs[0])
    with pytest.raises(ValueError, match="readout coefficients"):
        readout_expectation(mixed, np.zeros(5))


def test_readout_matches_dense_trace(rng):
    psi = _unit_rows(rng, 2, 4)
    rho = 0.7 * np.outer(psi[0], psi[0]) + 0.3 * np.outer(psi[1], psi[1])
    coeffs = rng.normal(size=4)
    H = np.diag(coeffs @ readout_features(2))
    assert readout_expectation(rho, coeffs) == \
        pytest.approx(float(np.trace(rho @ H)), abs=1e-12)


# ---------------------------------------------------------------------------
# model forward pass


def test_model_initial_deterministic():
    a = QcnnModel.initial(4, 3)
    b = QcnnModel.initial(4, 3)
    np.testing.assert_array_equal(a.params(), b.params())
    assert a.params().size == N_ANSATZ_PARAMS + 4
    assert np.abs(a.params()).max() <= 0.1
    c = QcnnModel.initial(4, 4)
    assert not np.array_equal(a.params(), c.params())
    with pytest.raises(ValueError, match="even"):
        QcnnModel.initial(3, 0)


def test_model_params_round_trip(rng):
    model = QcnnModel.initial(8, 1)
    flat = rng.normal(size=model.params().size)
    back = model.with_params(flat)
    np.testing.assert_array_equal(back.params(), flat)
    obj = json.loads(json.dumps(back.to_json_obj()))
    assert obj["kind"] == "qcnn" and obj["r"] == 8
    assert np.array_equal(np.concatenate([read_vector(obj["theta"]),
                                          read_vector(obj["readout"])]), flat)
    assert obj["readout"]["shape"] == [11]


def test_logits_match_stagewise_composition(rng):
    model = QcnnModel.initial(4, 9)
    Z = _unit_rows(rng, 3, 16)
    got = logits(model, Z)
    ancilla = prepare_lcu(model.theta)
    for i in range(3):
        _, conv = conv_lcu(Z[i], ancilla)
        rho = pool_discard(conv)
        assert got[i] == pytest.approx(
            readout_expectation(rho, model.readout), abs=1e-12)


def test_logits_keep_complex_amplitudes(rng):
    model = QcnnModel.initial(4, 9)
    Z = _unit_rows(rng, 3, 16) + 1j * _unit_rows(rng, 3, 16)
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no ComplexWarning from a cast
        got = logits(model, Z)
    ancilla = prepare_lcu(model.theta)
    for i in range(3):
        _, conv = conv_lcu(Z[i], ancilla)
        assert got[i] == pytest.approx(
            readout_expectation(pool_discard(conv), model.readout), abs=1e-12)
    # a global phase per sample is not observable
    phased = Z * np.exp(1j * np.array([0.3, 1.1, -2.0]))[:, None]
    np.testing.assert_allclose(logits(model, phased), got, atol=1e-12)


def test_mlp_rejects_complex_rows():
    with pytest.raises(ValueError, match="complex"):
        mlp_logits(MlpModel.initial(2, 0), np.ones((2, 2)) * 1j)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_non_finite_rows_are_rejected_at_the_boundary(bad):
    model, Z, y = _random_case(3, 4, np.iscomplexobj(bad), 4)
    Z = Z.copy()
    Z[1, 5] = bad
    cause = "row 2, amplitude 6: non-finite"
    with pytest.raises(ValueError, match=cause):
        logits(model, Z)
    with pytest.raises(ValueError, match=cause):
        loss_and_grad(model, Z, y)
    if not np.iscomplexobj(bad):
        mlp = MlpModel.initial(Z.shape[1], 0)
        with pytest.raises(ValueError, match=cause):
            mlp_logits(mlp, Z)
        with pytest.raises(ValueError, match=cause):
            mlp_loss_and_grad(mlp, Z, y)


# ---------------------------------------------------------------------------
# loss and gradients


def test_bce_loss_values():
    assert bce_loss(np.zeros(3), np.array([1, -1, 1])) == \
        pytest.approx(math.log(2.0))
    assert bce_loss(np.array([40.0, -40.0]), np.array([1, -1])) == \
        pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="sample 1"):
        bce_loss(np.array([0.0, np.inf]), np.array([1, -1]))


def test_accuracy_from_logits_tie_positive():
    assert accuracy_from_logits(np.array([0.0, -1.0, 2.0]),
                                np.array([1, -1, -1])) == pytest.approx(2 / 3)


def test_gradient_methods_agree(rng):
    Z = _unit_rows(rng, 4, 4)
    phased = Z + 0.3j * _unit_rows(rng, 4, 4)
    phased /= np.linalg.norm(phased, axis=1, keepdims=True)
    y = np.array([1, -1, 1, -1])
    for seed in (0, 1):
        base = QcnnModel.initial(2, seed)
        model = base.with_params(
            make_rng(seed, 90).uniform(-0.8, 0.8, base.params().size))
        for states in (Z, phased):
            g_fd = fd_gradient(model, states, y)
            _, g_ps = loss_and_grad(model, states, y)
            assert np.linalg.norm(g_fd - g_ps) <= 1e-4 * np.linalg.norm(g_ps)


# five-point stencil: the exact derivative of a trigonometric polynomial of
# degree <= 2 from its values at x + 2 pi m / 5, m = 0..4
_SHIFTS = 2.0 * math.pi * np.arange(5) / 5.0
_STENCIL = (2.0 / 5.0) * (np.sin(_SHIFTS) + 2.0 * np.sin(2.0 * _SHIFTS))


def _pooled_readouts(theta, Z, r):
    # per sample: post-selection probability and the pooled state's
    # expectation of every readout diagonal, composed stage by stage
    ancilla = prepare_lcu(theta)
    probs, rows = [], []
    for z in Z:
        prob, out = conv_lcu(z, ancilla)
        rho = pool_discard(out)
        probs.append(prob)
        rows.append([readout_expectation(rho, unit)
                     for unit in np.eye(n_readout(r))])
    return np.array(probs), np.array(rows)


def _five_point_gradient(model, Z, labels):
    """Reference gradient: every angle sits in one gate, so the post-selected
    numerator N = G e and norm G are degree-2 trigonometric polynomials in it;
    the five-point rule gives dN and dG, the quotient rule de, and the
    readout coefficients enter e linearly."""
    G0, E0 = _pooled_readouts(model.theta, Z, model.r)
    e0 = E0 @ model.readout
    dl_de = (1.0 / (1.0 + np.exp(-e0)) - (labels + 1) / 2.0) / len(labels)
    grad = []
    for p in range(N_ANSATZ_PARAMS):
        Ns, Gs = [], []
        for shift in _SHIFTS:
            theta = model.theta.copy()
            theta[p] += shift
            G, E = _pooled_readouts(theta, Z, model.r)
            Ns.append(G * (E @ model.readout))
            Gs.append(G)
        dN, dG = _STENCIL @ np.array(Ns), _STENCIL @ np.array(Gs)
        grad.append(dl_de @ ((dN * G0 - G0 * e0 * dG) / G0 ** 2))
    return np.concatenate([grad, dl_de @ E0])


def _random_case(seed, r, complex_rows, m, scale=1.0):
    rng = make_rng(seed, 77)
    base = QcnnModel.initial(r, seed)
    model = base.with_params(rng.uniform(-scale, scale, base.params().size))
    rows = _complex_unit_rows if complex_rows else _unit_rows
    return model, rows(rng, m, 2 ** r), rng.choice([-1, 1], size=m)


@pytest.mark.parametrize("r", [4, 8])
@pytest.mark.parametrize("complex_rows", [False, True])
def test_exact_gradient_matches_five_point_rule(r, complex_rows):
    model, Z, y = _random_case(11, r, complex_rows, 5)
    loss, grad = loss_and_grad(model, Z, y)
    ref = _five_point_gradient(model, Z, y)
    assert loss == pytest.approx(bce_loss(logits(model, Z), y), abs=1e-15)
    assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), r=st.sampled_from([2, 4]),
       complex_rows=st.booleans(), m=st.integers(1, 6),
       scale=st.floats(0.05, 3.0))
def test_exact_gradient_property(seed, r, complex_rows, m, scale):
    model, Z, y = _random_case(seed, r, complex_rows, m, scale)
    _, grad = loss_and_grad(model, Z, y)
    ref = _five_point_gradient(model, Z, y)
    assert np.linalg.norm(grad - ref) <= 1e-10 * np.linalg.norm(ref)


def test_default_gradient_prepares_the_ancilla_once(monkeypatch):
    # one ancilla computation per step: the Jacobian pass, and no forward
    model, Z, y = _random_case(4, 4, True, 6)
    calls = []

    def counted(fn):
        def wrapped(theta):
            calls.append((fn.__name__, np.shape(theta)))
            return fn(theta)
        return wrapped

    monkeypatch.setattr(qcnn, "prepare_lcu", counted(prepare_lcu))
    monkeypatch.setattr(qcnn, "lcu_jacobian", counted(lcu_jacobian))
    loss_and_grad(model, Z, y)
    assert calls == [("lcu_jacobian", (N_ANSATZ_PARAMS,))]


def test_training_steps_share_the_post_selection_guard(monkeypatch):
    # r = 2: branch 0 flips both qubits and branch 4 is the identity, so
    # weights 1/2 and 1/2 cancel the flip-odd row (1, 0, 0, -1)/sqrt 2: G = 0
    ancilla = np.zeros(ANCILLA_DIM)
    ancilla[[0, 4]] = 1.0 / math.sqrt(2.0)
    da = np.zeros((ANCILLA_DIM, N_ANSATZ_PARAMS))
    monkeypatch.setattr(qcnn, "prepare_lcu", lambda theta: ancilla)
    monkeypatch.setattr(qcnn, "lcu_jacobian", lambda theta: (ancilla, da))
    model = QcnnModel.initial(2, 0)
    Z = np.array([[1.0, 0.0, 0.0, -1.0]]) / math.sqrt(2.0)
    y = np.array([1])
    cause = r"LCU post-selection probability 0\.000e\+00 too small \(sample 0\)"
    for step in (lambda: logits(model, Z), lambda: loss_and_grad(model, Z, y),
                 lambda: fd_gradient(model, Z, y)):
        with pytest.raises(ValueError, match=cause):
            step()


def test_gradient_mean_reweighting(rng):
    # duplicating a sample reweights the mean loss: grad = (g1 + 2 g2) / 3
    Z = _unit_rows(rng, 2, 4)
    y = np.array([1, -1])
    model = QcnnModel.initial(2, 5)
    _, g1 = loss_and_grad(model, Z[:1], y[:1])
    _, g2 = loss_and_grad(model, Z[1:], y[1:])
    _, g3 = loss_and_grad(model, Z[[0, 1, 1]], y[[0, 1, 1]])
    np.testing.assert_allclose(g3, (g1 + 2.0 * g2) / 3.0, atol=1e-10)


# ---------------------------------------------------------------------------
# training loops


def _toy_split():
    # pooled first qubit differs between the classes after the k=0 shift
    plus = np.zeros(4)
    plus[0] = 1.0
    minus = np.zeros(4)
    minus[2] = 1.0
    train_x = np.array([plus, minus] * 4)
    train_y = np.array([1, -1] * 4)
    return SplitData(train_x=train_x, train_y=train_y,
                     test_x=np.array([plus, minus]),
                     test_y=np.array([1, -1]))


def test_train_toy_problem_reaches_perfect_accuracy():
    data = _toy_split()
    cfg = TrainConfig(learning_rate=0.1, batch_size=4, epochs=5, seed=2)
    result = train(QcnnModel.initial(2, 2), data, cfg)
    assert any(row["train_acc"] == 1.0 for row in result.history)
    assert result.final["test_acc"] == 1.0
    assert len(result.history) == 5
    assert result.final_params.shape == (30,)   # 28 ansatz + 2 readout


def test_train_first_epoch_reduces_loss():
    data = _toy_split()
    model = QcnnModel.initial(2, 7)
    before = bce_loss(logits(model, data.train_x), data.train_y)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, epochs=1, seed=7)
    result = train(model, data, cfg)
    assert result.history[0]["train_loss"] < before


def test_train_reaches_the_functions_a_tracer_replaces(monkeypatch):
    # a tracer (bench/spans.py) replaces these module attributes before a
    # run, so train must look them up when it runs: one loss_and_grad per
    # minibatch, and one logits, hence one prepare_lcu, for the training
    # rows and one for the test rows per epoch
    data = _toy_split()
    cfg = TrainConfig(learning_rate=0.1, batch_size=3, epochs=4, seed=2)
    plain = qcnn.train(QcnnModel.initial(2, 2), data, cfg)
    calls = dict.fromkeys(("loss_and_grad", "logits", "prepare_lcu"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(qcnn, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(qcnn, name, counted)
    traced = qcnn.train(QcnnModel.initial(2, 2), data, cfg)
    batches = math.ceil(len(data.train_y) / cfg.batch_size)
    assert calls == {"loss_and_grad": cfg.epochs * batches,
                     "logits": 2 * cfg.epochs, "prepare_lcu": 2 * cfg.epochs}
    assert traced.history == plain.history


def test_train_deterministic_under_seed():
    data = _toy_split()
    cfg = TrainConfig(learning_rate=0.05, batch_size=4, epochs=3, seed=4)
    a = train(QcnnModel.initial(2, 4), data, cfg)
    b = train(QcnnModel.initial(2, 4), data, cfg)
    assert a.history == b.history
    np.testing.assert_array_equal(a.final_params, b.final_params)


def test_adam_step_matches_the_allocating_formula_bit_for_bit():
    # the in-place update must round exactly as the textbook expression
    rng = make_rng(3, 0)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    opt = qcnn._Adam(500, lr)
    params = rng.normal(size=500)
    ref, m, v = params.copy(), np.zeros(500), np.zeros(500)
    for t in range(1, 201):
        grad = rng.normal(size=500) * 10.0 ** rng.uniform(-8.0, 2.0, 500)
        params = opt.step(params, grad)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + eps)
        assert np.array_equal(params.view(np.uint64), ref.view(np.uint64))


def test_adam_step_allocates_nothing_and_updates_in_place():
    # at the raw MLP's 66,177 parameters the allocating step took 1.59 MB
    opt = qcnn._Adam(66177, 0.01)
    params, grad = np.linspace(-1.0, 1.0, 66177), np.cos(np.arange(66177.0))
    opt.step(params, grad)
    tracemalloc.start()
    try:
        out = opt.step(params, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is params
    assert peak <= 4096


def test_train_config_validation():
    data = _toy_split()
    with pytest.raises(ValueError, match="epochs"):
        train(QcnnModel.initial(2, 0), data, TrainConfig(epochs=0))
    with pytest.raises(ValueError, match="batch size"):
        train(QcnnModel.initial(2, 0), data, TrainConfig(batch_size=9))


@pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf])
def test_train_config_rejects_bad_learning_rate(lr):
    # Adam with a negative step climbs the loss; NaN poisons every parameter
    with pytest.raises(ValueError, match="learning rate"):
        train(QcnnModel.initial(2, 0), _toy_split(),
              TrainConfig(learning_rate=lr))
    with pytest.raises(ValueError, match="learning rate"):
        mlp_baseline(MlpModel.initial(4, 0), _toy_split(),
                     TrainConfig(learning_rate=lr))


def test_history_csv_round_trip(tmp_path, capsys):
    # the history CSV that `qrdr qcnn-train` writes reads back to the
    # training history of the same split, seed and settings
    import csv

    from qrdr import cli, tfim
    from qrdr.dataset import holdout_split

    ds = tfim.generate_dataset(n_sites=4, count=10, seed=1)
    tfim.save_dataset(tmp_path / "phase.jsonl", ds)
    assert cli.main(["qcnn-train", "--data", str(tmp_path / "phase.jsonl"),
                     "--r", "4", "--arms", "qcnn", "--seeds", "1",
                     "--epochs", "2", "--batch-size", "4", "--lr", "0.05",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    tr, te = holdout_split(ds.count, 2, 1)
    data = SplitData(ds.features[tr], ds.labels[tr], ds.features[te],
                     ds.labels[te])
    cfg = TrainConfig(learning_rate=0.05, batch_size=4, epochs=2, seed=1)
    result = train(QcnnModel.initial(4, 1), data, cfg)
    with open(tmp_path / "history_qcnn_s1.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == qcnn.HISTORY_FIELDS
        rows = list(reader)
    assert len(rows) == 2
    for row, entry in zip(rows, result.history):
        assert int(row["epoch"]) == entry["epoch"]
        for key in qcnn.HISTORY_FIELDS[1:]:
            assert float(row[key]) == entry[key]
    ckpt = json.loads((tmp_path / "model_qcnn_s1.json").read_text())
    assert np.array_equal(read_vector(ckpt["theta"]), result.final_params[:28])


# ---------------------------------------------------------------------------
# MLP baseline


def _mlp_toy(rng, m=12):
    X = np.vstack([rng.normal(size=(m // 2, 2)) * 0.2 + [2.0, 0.0],
                   rng.normal(size=(m // 2, 2)) * 0.2 - [2.0, 0.0]])
    y = np.concatenate([np.ones(m // 2), -np.ones(m // 2)])
    return X, y


def test_mlp_gradient_spot_check(rng):
    X, y = _mlp_toy(rng, 6)
    model = MlpModel.initial(2, 3)
    loss, grad = mlp_loss_and_grad(model, X, y)
    params = model.params()
    h = 1e-6
    for idx in make_rng(0, 0).choice(params.size, size=10, replace=False):
        up = params.copy()
        dn = params.copy()
        up[idx] += h
        dn[idx] -= h
        l_up, _ = mlp_loss_and_grad(model.with_params(up), X, y)
        l_dn, _ = mlp_loss_and_grad(model.with_params(dn), X, y)
        fd = (l_up - l_dn) / (2.0 * h)
        assert grad[idx] == pytest.approx(fd, abs=1e-4 * max(1.0, abs(fd)))


def test_mlp_separates_toy_clusters(rng):
    X, y = _mlp_toy(rng, 16)
    data = SplitData(train_x=X, train_y=y, test_x=X[[0, -1]], test_y=y[[0, -1]])
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, epochs=10, seed=6)
    result = mlp_baseline(MlpModel.initial(2, 6), data, cfg)
    assert result.final["test_acc"] == 1.0
    assert result.final["train_acc"] == 1.0


def test_mlp_deterministic(rng):
    X, y = _mlp_toy(rng, 8)
    data = SplitData(train_x=X, train_y=y, test_x=X[:2], test_y=y[:2])
    cfg = TrainConfig(batch_size=4, epochs=2, seed=8)
    a = mlp_baseline(MlpModel.initial(2, 8), data, cfg)
    b = mlp_baseline(MlpModel.initial(2, 8), data, cfg)
    assert a.history == b.history
    # the trainer starts from the model it is given
    other = mlp_baseline(MlpModel.initial(2, 9), data, cfg)
    assert not np.array_equal(other.final_params, a.final_params)


def test_mlp_shapes():
    model = MlpModel.initial(16, 0)
    assert [w.shape for w in model.weights] == \
        [(128, 16), (128, 128), (128, 128), (1, 128)]
    out = mlp_logits(model, np.ones((3, 16)))
    assert out.shape == (3,)
