"""Quantum convolutional classifier with an LCU convolution, plus MLP baseline.

One classifier stage: a 4-qubit ancilla, prepared by a trainable ansatz
followed by a fixed Hadamard layer, selects a linear combination of the
nine shift products Q_k = E_a (x) E_b acting on the two halves of the
r-qubit data register (prepare - select - unprepare, post-selected on the
ancilla returning to |0000>), a pooling step discards the second half of
the qubits, and a diagonal I/Z/ZZ readout Hamiltonian produces a logit.
Data states may be real or complex.  Training minimises binary
cross-entropy with Adam.

Gradients come either from central finite differences or from an exact
trigonometric parameter-shift rule: with every rotation parameter entering
exactly one gate, the post-selected numerator and norm are trigonometric
polynomials of degree <= 2 in each parameter, so five equally spaced
evaluations recover the derivative exactly; the quotient rule then gives
the logit derivative.

The classical baseline is a three-layer 128-unit tanh MLP with an explicit
backward pass, trained under identical batching and optimiser settings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import make_rng
from .linalg import kron_all

N_ANSATZ_PARAMS = 28
ANCILLA_QUBITS = 4
ANCILLA_DIM = 16
MIN_LCU_PROB = 1e-12

# ---------------------------------------------------------------------------
# shift operators and LCU branches


def shift_operator(r_half: int) -> np.ndarray:
    """Cyclic increment E1 on 2^r_half basis states: E1|j> = |j+1 mod d>."""
    if r_half < 1:
        raise ValueError("need at least one qubit per half")
    d = 2 ** r_half
    E = np.zeros((d, d))
    E[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return E


def branch_sources(r: int) -> np.ndarray:
    """Index maps for all 16 LCU branches: (Q_k z)[i] = z[sources[k, i]].

    Branches k = 3a + b < 9 apply E_{a+1} (x) E_{b+1} on the two r/2-qubit
    halves with E1 = increment, E2 = identity, E3 = decrement; branches
    9..15 are identity.
    """
    if r % 2:
        raise ValueError("data register must have an even number of qubits")
    dh = 2 ** (r // 2)
    hi, lo = np.divmod(np.arange(dh * dh), dh)
    shifts = (-1, 0, 1)  # source offset for E1, E2, E3
    sources = np.empty((16, dh * dh), dtype=np.intp)
    for a in range(3):
        for b in range(3):
            sources[3 * a + b] = ((hi + shifts[a]) % dh) * dh + (lo + shifts[b]) % dh
    sources[9:] = np.arange(dh * dh)
    return sources


def branch_matrix(r: int, k: int) -> np.ndarray:
    """Dense permutation matrix of branch k (test/reference use)."""
    src = branch_sources(r)[k]
    Q = np.zeros((src.size, src.size))
    Q[np.arange(src.size), src] = 1.0
    return Q


# ---------------------------------------------------------------------------
# ancilla ansatz


def _apply_ry(psi: np.ndarray, theta: float, q: int) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    psi = psi.reshape(2 ** q, 2, -1)
    a, b = psi[:, 0].copy(), psi[:, 1].copy()
    psi[:, 0] = c * a - s * b
    psi[:, 1] = s * a + c * b
    return psi.reshape(-1)


def _apply_rz(psi: np.ndarray, theta: float, q: int) -> np.ndarray:
    psi = psi.reshape(2 ** q, 2, -1)
    psi[:, 0] *= np.exp(-0.5j * theta)
    psi[:, 1] *= np.exp(0.5j * theta)
    return psi.reshape(-1)


def _apply_cnot(psi: np.ndarray, ctrl: int, tgt: int, nq: int) -> np.ndarray:
    psi = psi.reshape([2] * nq)
    psi = np.moveaxis(psi, (ctrl, tgt), (0, 1))
    psi[1] = psi[1, ::-1].copy()
    psi = np.moveaxis(psi, (0, 1), (ctrl, tgt))
    return psi.reshape(-1)


def prepare_ansatz(theta: np.ndarray) -> np.ndarray:
    """Ancilla state S(theta)|0000>.

    Three layers of per-qubit Ry then Rz rotations followed by a CNOT ring,
    then a final Ry on each qubit: 3 * 8 + 4 = 28 parameters.  All gates
    reduce to the identity (up to global phase) at theta = 0.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (N_ANSATZ_PARAMS,):
        raise ValueError(
            f"ansatz takes exactly {N_ANSATZ_PARAMS} parameters, got {theta.shape}"
        )
    psi = np.zeros(ANCILLA_DIM, dtype=complex)
    psi[0] = 1.0
    p = 0
    for _ in range(3):
        for q in range(ANCILLA_QUBITS):
            psi = _apply_ry(psi, theta[p], q)
            p += 1
        for q in range(ANCILLA_QUBITS):
            psi = _apply_rz(psi, theta[p], q)
            p += 1
        for q in range(ANCILLA_QUBITS):
            psi = _apply_cnot(psi, q, (q + 1) % ANCILLA_QUBITS, ANCILLA_QUBITS)
    for q in range(ANCILLA_QUBITS):
        psi = _apply_ry(psi, theta[p], q)
        p += 1
    return psi


# fixed last stage of the LCU PREPARE step: the 4-qubit Walsh-Hadamard
# transform, entries +/-1/4
_HADAMARD = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)]
                     * ANCILLA_QUBITS)


def prepare_lcu(theta: np.ndarray) -> np.ndarray:
    """LCU ancilla state H^(x4) S(theta)|0000>, whose |amplitudes|^2 are the
    branch weights of the convolution.

    The Hadamard layer fixes where training starts.  The ansatz begins near
    the identity (angles within +/-0.1), and S(0)|0000> = |0000> is a
    critical point of every weight |a_k|^2.  Without the layer, branch 0
    would carry about 98% of the weight: the convolution would be a single
    permutation, the pooled I/Z/ZZ readout would see only the populations
    of a shifted copy of the input, and every ansatz gradient would be
    O(theta).  With it, theta = 0 gives the uniform mixture of all 16
    branches (weight 1/16 each), so neighbouring amplitudes interfere from
    the first step, and the final Ry layer moves the weights at first order.
    """
    return _HADAMARD @ prepare_ansatz(theta)


def ansatz_amplitude_gradient(theta: np.ndarray, index: int) -> np.ndarray:
    """d(prepare_ansatz)/d(theta[index]) by the two-point shift rule.

    Each parameter sits in a single half-angle rotation, so every amplitude
    is A cos(theta_i/2) + B sin(theta_i/2) and the +/- pi/2 evaluations
    recover the derivative exactly with divisor 4 sin(pi/4).
    """
    up = np.array(theta, dtype=float)
    dn = up.copy()
    up[index] += math.pi / 2.0
    dn[index] -= math.pi / 2.0
    return (prepare_ansatz(up) - prepare_ansatz(dn)) / (2.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# convolution, pooling, readout


def branch_weights(ancilla: np.ndarray) -> np.ndarray:
    """LCU branch weights |a_k|^2 from the prepared ancilla state."""
    ancilla = np.asarray(ancilla)
    if ancilla.shape != (ANCILLA_DIM,):
        raise ValueError(f"ancilla must be {ANCILLA_DIM}-dimensional")
    return np.abs(ancilla) ** 2


def _apply_branches(weights: np.ndarray, Z: np.ndarray,
                    sources: np.ndarray) -> np.ndarray:
    # sum_k w_k Q_k applied to rows of Z
    out = np.zeros_like(Z)
    for k, w in enumerate(weights):
        if w != 0.0:
            out += w * Z[:, sources[k]]
    return out


def conv_lcu(state: np.ndarray, ancilla: np.ndarray):
    """Post-selected LCU convolution of one data state.

    Prepare-select-unprepare with the ancilla returning to |0000> applies
    sum_k |a_k|^2 Q_k; the post-selection probability is the squared norm
    of that image.  Raises when essentially no amplitude survives.
    """
    state = np.asarray(state)
    r = int(round(math.log2(state.size)))
    if 2 ** r != state.size:
        raise ValueError("state dimension must be a power of two")
    weights = branch_weights(ancilla)
    out = _apply_branches(weights, state[None, :], branch_sources(r))[0]
    prob = float(np.sum(np.abs(out) ** 2))
    if prob < MIN_LCU_PROB:
        raise ValueError(f"LCU post-selection probability {prob:.3e} too small")
    return prob, out / math.sqrt(prob)


def pool_discard(state: np.ndarray) -> np.ndarray:
    """Partial trace over the second half of the qubits.

    The pooling rotation is fixed to the identity, so pooling is exactly a
    discard; the result is a trace-1 PSD density operator on r/2 qubits.
    """
    state = np.asarray(state)
    r = int(round(math.log2(state.size)))
    if 2 ** r != state.size or r % 2:
        raise ValueError("state must live on an even number of qubits")
    dh = 2 ** (r // 2)
    block = state.reshape(dh, dh)
    return block @ block.conj().T


def _z_diagonals(q: int) -> np.ndarray:
    # rows: diagonal of Z_i on q qubits (computational order, qubit 0 = MSB)
    s = np.arange(2 ** q)
    return np.array([1.0 - 2.0 * ((s >> (q - 1 - i)) & 1) for i in range(q)])


def n_readout(r: int) -> int:
    q = r // 2
    return 1 + q + q * (q - 1) // 2


def readout_features(q: int) -> np.ndarray:
    """Diagonals multiplying each readout coefficient: I, Z_i, Z_i Z_j."""
    zs = _z_diagonals(q)
    rows = [np.ones(2 ** q)]
    rows.extend(zs)
    for i in range(q):
        for j in range(i + 1, q):
            rows.append(zs[i] * zs[j])
    return np.array(rows)


def readout_expectation(rho: np.ndarray, coeffs: np.ndarray) -> float:
    """e = h0 + sum_i h_i Tr(rho Z_i) + sum_{i<j} h_ij Tr(rho Z_i Z_j)."""
    rho = np.asarray(rho)
    q = int(round(math.log2(rho.shape[0])))
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n_readout(2 * q),):
        raise ValueError(
            f"expected {n_readout(2 * q)} readout coefficients, got {coeffs.shape}"
        )
    diag = np.real(np.diagonal(rho))
    return float(coeffs @ (readout_features(q) @ diag))


# ---------------------------------------------------------------------------
# model and training


@dataclass
class QcnnModel:
    """Trainable state of the classifier for an r-qubit data register."""

    r: int
    theta: np.ndarray
    readout: np.ndarray

    @staticmethod
    def initial(r: int, seed: int) -> "QcnnModel":
        if r % 2:
            raise ValueError("data register must have an even number of qubits")
        rng = make_rng(seed, 5)
        return QcnnModel(
            r=r,
            theta=rng.uniform(-0.1, 0.1, N_ANSATZ_PARAMS),
            readout=rng.uniform(-0.1, 0.1, n_readout(r)),
        )

    def params(self) -> np.ndarray:
        return np.concatenate([self.theta, self.readout])

    def with_params(self, flat: np.ndarray) -> "QcnnModel":
        return replace(self, theta=flat[:N_ANSATZ_PARAMS].copy(),
                       readout=flat[N_ANSATZ_PARAMS:].copy())

    def to_json_obj(self) -> dict:
        return {
            "kind": "qcnn",
            "r": self.r,
            "theta": [float(t) for t in self.theta],
            "readout": [float(h) for h in self.readout],
        }


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 20
    epochs: int = 20
    seed: int = 7
    gradient: str = "fd"       # "fd" or "parameter-shift"

    def validate(self, n_train: int) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 1 <= self.batch_size <= n_train:
            raise ValueError(
                f"batch size must be in [1, {n_train}], got {self.batch_size}"
            )
        if self.gradient not in ("fd", "parameter-shift"):
            raise ValueError(f"unknown gradient method {self.gradient!r}")


def _state_rows(Z) -> np.ndarray:
    # complex amplitudes are kept: the forward pass only uses |V|^2
    Z = np.asarray(Z)
    return Z.astype(complex if np.iscomplexobj(Z) else float, copy=False)


def _forward_parts(theta: np.ndarray, Z: np.ndarray, sources: np.ndarray,
                   feats: np.ndarray):
    """Batched readout rows and norm of the post-selected states.

    Returns (F, G) with logit e = (F @ readout) / G: G[i] is the LCU
    post-selection probability of sample i and F[i, j] the expectation of
    the j-th readout diagonal against the unnormalised pooled operator.
    Equal to composing conv_lcu, pool_discard and readout_expectation
    sample by sample.
    """
    weights = branch_weights(prepare_lcu(theta))
    P = np.abs(_apply_branches(weights, Z, sources)) ** 2
    G = P.sum(axis=1)
    dh = feats.shape[1]
    F = P.reshape(P.shape[0], dh, dh).sum(axis=2) @ feats.T
    return F, G


def logits(model: QcnnModel, Z: np.ndarray) -> np.ndarray:
    """Per-sample readout logits e = N / G."""
    Z = _state_rows(Z)
    sources = branch_sources(model.r)
    feats = readout_features(model.r // 2)
    F, G = _forward_parts(model.theta, Z, sources, feats)
    if np.any(G < MIN_LCU_PROB):
        bad = int(np.argmin(G))
        raise ValueError(
            f"LCU post-selection probability {G[bad]:.3e} too small "
            f"(sample {bad})"
        )
    return (F @ model.readout) / G


def bce_loss(e: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid(e) against +/-1 labels."""
    e = np.asarray(e, dtype=float)
    y = (np.asarray(labels) + 1) / 2.0
    per = np.logaddexp(0.0, -e) * y + np.logaddexp(0.0, e) * (1.0 - y)
    if not np.all(np.isfinite(per)):
        bad = int(np.flatnonzero(~np.isfinite(per))[0])
        raise ValueError(f"non-finite loss at sample {bad}")
    return float(per.mean())


def accuracy_from_logits(e: np.ndarray, labels: np.ndarray) -> float:
    pred = np.where(np.asarray(e) >= 0.0, 1, -1)
    return float(np.mean(pred == np.asarray(labels)))


# central finite-difference step of the "fd" gradient
FD_STEP = 1e-5

# five-point stencil recovering g'(x) exactly for trigonometric polynomials
# of degree <= 2: g evaluated at x + 2 pi m / 5, m = 0..4
_SHIFTS = 2.0 * math.pi * np.arange(5) / 5.0
_STENCIL = np.array([
    (2.0 / 5.0) * (math.sin(2.0 * math.pi * m / 5.0)
                   + 2.0 * math.sin(4.0 * math.pi * m / 5.0))
    for m in range(5)
])


def loss_and_grad(model: QcnnModel, Z: np.ndarray, labels: np.ndarray,
                  cfg: TrainConfig):
    """Batch loss and gradient over all trainable parameters.

    ``cfg.gradient`` selects central finite differences on every parameter
    or the exact path: trigonometric parameter shifts for the 28 rotation
    parameters (five evaluations each, quotient rule for the post-selected
    logit) and analytic derivatives for the readout coefficients.
    """
    Z = _state_rows(Z)
    labels = np.asarray(labels)
    sources = branch_sources(model.r)
    feats = readout_features(model.r // 2)
    params = model.params()

    def loss_at(flat: np.ndarray) -> float:
        F, G = _forward_parts(flat[:N_ANSATZ_PARAMS], Z, sources, feats)
        return bce_loss((F @ flat[N_ANSATZ_PARAMS:]) / G, labels)

    loss = loss_at(params)
    grad = np.empty_like(params)
    if cfg.gradient == "fd":
        h = FD_STEP
        for i in range(params.size):
            up = params.copy()
            dn = params.copy()
            up[i] += h
            dn[i] -= h
            grad[i] = (loss_at(up) - loss_at(dn)) / (2.0 * h)
        return loss, grad

    # parameter-shift path
    F0, G0 = _forward_parts(model.theta, Z, sources, feats)
    N0 = F0 @ model.readout
    e0 = N0 / G0
    y = (labels + 1) / 2.0
    dl_de = (1.0 / (1.0 + np.exp(-e0)) - y) / Z.shape[0]
    for i in range(N_ANSATZ_PARAMS):
        Ns = np.empty((5, Z.shape[0]))
        Gs = np.empty((5, Z.shape[0]))
        Ns[0], Gs[0] = N0, G0
        for m in range(1, 5):
            th = model.theta.copy()
            th[i] += _SHIFTS[m]
            F, Gs[m] = _forward_parts(th, Z, sources, feats)
            Ns[m] = F @ model.readout
        dN = _STENCIL @ Ns
        dG = _STENCIL @ Gs
        de = (dN * G0 - N0 * dG) / G0 ** 2
        grad[i] = float(dl_de @ de)
    # readout coefficients enter the logit linearly: de/dh_j = F_j / G
    grad[N_ANSATZ_PARAMS:] = dl_de @ (F0 / G0[:, None])
    return loss, grad


class _Adam:
    def __init__(self, n: int, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        return params - self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class SplitData:
    """A ready train/test split of feature rows and +/-1 labels."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass
class TrainResult:
    history: list = field(default_factory=list)
    final_params: np.ndarray | None = None

    @property
    def final(self) -> dict:
        return self.history[-1]

    def write_csv(self, path) -> None:
        fields = ["epoch", "train_loss", "train_acc", "test_loss", "test_acc"]
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self.history:
                writer.writerow({
                    "epoch": row["epoch"],
                    **{k: repr(row[k]) for k in fields[1:]},
                })


def _epoch_entry(epoch, tr_loss, tr_e, tr_y, te_loss, te_e, te_y) -> dict:
    return {
        "epoch": epoch,
        "train_loss": float(tr_loss),
        "train_acc": accuracy_from_logits(tr_e, tr_y),
        "test_loss": float(te_loss),
        "test_acc": accuracy_from_logits(te_e, te_y),
    }


def _fit(model, data: SplitData, cfg: TrainConfig, grad_fn,
         logits_fn) -> TrainResult:
    """Minibatch Adam over ``model.params()``: ``grad_fn(model, X, y)`` gives
    a batch's (loss, gradient), ``logits_fn(model, X)`` scores each epoch."""
    cfg.validate(len(data.train_y))
    params = model.params()
    opt = _Adam(params.size, cfg.learning_rate)
    shuffle = make_rng(cfg.seed, 4)
    result = TrainResult()
    n = len(data.train_y)
    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grad = grad_fn(model.with_params(params),
                              data.train_x[idx], data.train_y[idx])
            params = opt.step(params, grad)
        current = model.with_params(params)
        tr_e = logits_fn(current, data.train_x)
        te_e = logits_fn(current, data.test_x)
        result.history.append(_epoch_entry(
            epoch, bce_loss(tr_e, data.train_y), tr_e, data.train_y,
            bce_loss(te_e, data.test_y), te_e, data.test_y,
        ))
    result.final_params = params
    return result


def train(model: QcnnModel, data: SplitData, cfg: TrainConfig) -> TrainResult:
    """Minibatch Adam training; history records one entry per epoch."""
    # the lambdas look the functions up per call, so wrapped ones are seen
    return _fit(model, data, cfg,
                lambda m, X, y: loss_and_grad(m, X, y, cfg),
                lambda m, X: logits(m, X))


# ---------------------------------------------------------------------------
# classical MLP baseline (explicit backward pass)

MLP_WIDTH = 128
MLP_DEPTH = 3


@dataclass
class MlpModel:
    weights: list
    biases: list

    @staticmethod
    def initial(n_inputs: int, seed: int) -> "MlpModel":
        rng = make_rng(seed, 6)
        sizes = [n_inputs] + [MLP_WIDTH] * MLP_DEPTH + [1]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, (fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return MlpModel(weights=weights, biases=biases)

    def params(self) -> np.ndarray:
        return np.concatenate([w.reshape(-1) for w in self.weights]
                              + [b for b in self.biases])

    def with_params(self, flat: np.ndarray) -> "MlpModel":
        weights, biases = [], []
        pos = 0
        for w in self.weights:
            weights.append(flat[pos:pos + w.size].reshape(w.shape).copy())
            pos += w.size
        for b in self.biases:
            biases.append(flat[pos:pos + b.size].copy())
            pos += b.size
        return MlpModel(weights=weights, biases=biases)


def _real_rows(X) -> np.ndarray:
    X = np.asarray(X)
    if np.iscomplexobj(X):
        raise ValueError("MLP inputs must be real, got complex amplitudes")
    return X.astype(float, copy=False)


def mlp_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    a = _real_rows(X).T
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.tanh(w @ a + b[:, None])
    return (model.weights[-1] @ a + model.biases[-1][:, None])[0]


def mlp_loss_and_grad(model: MlpModel, X: np.ndarray, labels: np.ndarray):
    """Loss plus backpropagated gradient in ``model.params()`` order."""
    X = _real_rows(X)
    y = (np.asarray(labels) + 1) / 2.0
    acts = [X.T]
    a = acts[0]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.tanh(w @ a + b[:, None])
        acts.append(a)
    logit = (model.weights[-1] @ a + model.biases[-1][:, None])[0]
    loss = bce_loss(logit, labels)
    m = X.shape[0]
    delta = ((1.0 / (1.0 + np.exp(-logit)) - y) / m)[None, :]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = delta @ acts[layer].T
        grads_b[layer] = delta.sum(axis=1)
        if layer:
            delta = (model.weights[layer].T @ delta) * (1.0 - acts[layer] ** 2)
    flat = np.concatenate([g.reshape(-1) for g in grads_w]
                          + [g for g in grads_b])
    return loss, flat


def mlp_baseline(data: SplitData, cfg: TrainConfig) -> TrainResult:
    """Train the MLP under the same protocol as the quantum classifier."""
    return _fit(MlpModel.initial(data.train_x.shape[1], cfg.seed), data, cfg,
                lambda m, X, y: mlp_loss_and_grad(m, X, y),
                lambda m, X: mlp_logits(m, X))
