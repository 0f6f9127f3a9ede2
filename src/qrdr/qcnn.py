"""Quantum convolutional classifier with an LCU convolution, plus MLP baseline.

One classifier stage: a 4-qubit ancilla, prepared by a trainable ansatz
followed by a fixed Hadamard layer, selects a linear combination of the
nine shift products Q_k = E_a (x) E_b acting on the two halves of the
r-qubit data register (prepare - select - unprepare, post-selected on the
ancilla returning to |0000>), a pooling step discards the second half of
the qubits, and a diagonal I/Z/ZZ readout Hamiltonian produces a logit.
Data states may be real or complex.  Training minimises binary
cross-entropy with Adam.

Training uses one exact gradient (:func:`loss_and_grad`): one forward and
one backward pass over the ansatz's seven layers give the ancilla's
Jacobian (:func:`lcu_jacobian`), and the chain rule through the branch
weights, the convolution and the pooled readout is closed form.  The
parameter-shift rule and central finite differences (:func:`fd_gradient`)
stay as the checks' references.

The branch images do not depend on the parameters, so :func:`train`
gathers the nine distinct images Q_k z of its training rows and of its
test rows once per run, into a :class:`BranchStack` of shape
(9, rows, 2^r).  Each forward pass then forms the convolution image
V = sum_k w_k Q_k z as one product of the folded weights with the stack,
and each gradient forms dL/dw_k as one product of the stack with the
backpropagated image.  Minibatches select rows of the stack.

The classical baseline is a three-layer 128-unit tanh MLP with an explicit
backward pass, trained under identical batching and optimiser settings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import PhiloxStream, require_finite, vector_json
from .linalg import kron_all

N_ANSATZ_PARAMS = 28
ANCILLA_QUBITS = 4
ANCILLA_DIM = 16
MIN_LCU_PROB = 1e-12

# ---------------------------------------------------------------------------
# LCU branches

# branch -> class among the nine distinct products; 4 and 9..15 are identity
_BRANCH_CLASS = np.r_[0:9, [4] * 7]


@functools.cache
def branch_sources(r: int) -> np.ndarray:
    """Index maps for all 16 LCU branches: (Q_k z)[i] = z[sources[k, i]].

    Branches k = 3a + b < 9 apply E_{a+1} (x) E_{b+1} on the two r/2-qubit
    halves with E1 = increment, E2 = identity, E3 = decrement; branches
    9..15 are identity.  Cached per r, so the array is read-only.
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
    sources.flags.writeable = False
    return sources


# ---------------------------------------------------------------------------
# ancilla ansatz in seven stages: four Ry layers, each a 16x16 Kronecker
# product, and three diagonal Rz layers, each followed by the CNOT ring

_FLIPS = np.arange(16) ^ (8 >> np.arange(4))[:, None]   # X_q: psi[_FLIPS[q]]
_BITS = np.arange(16) >> (3 - np.arange(4))[:, None] & 1  # (qubit, state)
BIT_SIGNS = np.where(_BITS, 1.0, -1.0)   # -1 where qubit q is 0, else +1
# CNOT q -> q + 1 (mod 4), q = 0..3, as gathers: they compose as
# psi[:, g1][:, g2] == psi[:, g1[g2]], and each CNOT is its own inverse
_CNOTS = np.arange(16) ^ _BITS * (8 >> np.arange(1, 5) % 4)[:, None]
_RING, _RING_INV = (functools.reduce(lambda ring, g: ring[g], gathers)
                    for gathers in (_CNOTS, _CNOTS[::-1]))


def _forward(theta):
    """The ansatz on |0000> for one vector theta of 28 angles, stage by stage.

    Layer l has Ry angles theta[8l:8l+4] and Rz angles theta[8l+4:8l+8].
    Returns the Ry layer matrices (4, 16, 16), the Rz diagonals (3, 16),
    and the states after each Ry layer and before each ring.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (N_ANSATZ_PARAMS,):
        raise ValueError(f"ansatz takes one parameter vector of "
                         f"{N_ANSATZ_PARAMS} angles, got shape {theta.shape}")
    layers = theta[:24].reshape(3, 8)
    half = np.concatenate([layers[:, :4], theta[None, 24:]]) / 2
    c, s = np.cos(half), np.sin(half)
    gates = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    mats = np.einsum("...ab,...cd,...ef,...gh->...acegbdfh",
                     *np.moveaxis(gates, 1, 0)).reshape(4, 16, 16)
    phases = np.exp(0.5j * layers[:, 4:] @ BIT_SIGNS)
    after_ry, phased = [mats[0, :, 0]], []   # first Ry layer on |0000>
    for layer in range(3):
        phased.append(phases[layer] * after_ry[-1])
        after_ry.append(np.einsum("ij,j->i", mats[layer + 1],
                                  phased[-1][_RING]))
    return mats, phases, after_ry, phased


def prepare_ansatz(theta: np.ndarray) -> np.ndarray:
    """Ancilla state S(theta)|0000> for one vector of 28 angles.

    Three layers of per-qubit Ry then Rz rotations followed by a CNOT ring,
    then a final Ry on each qubit: 3 * 8 + 4 = 28 parameters.  All gates
    reduce to the identity (up to global phase) at theta = 0.
    """
    return _forward(theta)[2][-1]


# fixed last stage of the LCU PREPARE step: the 4-qubit Walsh-Hadamard
# transform, entries +/-1/4; it is symmetric, so it acts on row states from
# the right
_HADAMARD = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)]
                     * ANCILLA_QUBITS)


def prepare_lcu(theta: np.ndarray) -> np.ndarray:
    """LCU ancilla state H^(x4) S(theta)|0000>, whose |amplitudes|^2 are
    the branch weights of the convolution.

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
    return prepare_ansatz(theta) @ _HADAMARD


def lcu_jacobian(theta: np.ndarray):
    """a = prepare_lcu(theta) and da/dtheta (16, 28) by adjoint
    differentiation: the backward pass carries U = H M_7 ... M_{s+1}.  An Ry
    angle on qubit q gives U (-i/2 Y_q) psi_s, psi_s the state after its
    layer, with -i/2 Y_q psi = BIT_SIGNS_q psi[_FLIPS_q] / 2; an Rz angle
    gives U RING (-i/2 Z_q) D psi_{s-1}, with -i/2 Z_q = 0.5j BIT_SIGNS_q.
    """
    mats, phases, after_ry, phased = _forward(theta)
    U = _HADAMARD
    da = np.empty((ANCILLA_DIM, N_ANSATZ_PARAMS), dtype=complex)
    for layer in range(3, -1, -1):
        p = 8 * layer                   # this layer's first Ry angle
        da[:, p:p + 4] = U @ (0.5 * BIT_SIGNS * after_ry[layer][_FLIPS]).T
        if layer:
            U = (U @ mats[layer])[:, _RING_INV]     # U M_s RING
            da[:, p - 4:p] = U @ (0.5j * BIT_SIGNS * phased[layer - 1]).T
            U = U * phases[layer - 1]
    return after_ry[-1] @ _HADAMARD, da


# ---------------------------------------------------------------------------
# convolution, pooling, readout


def branch_weights(ancilla: np.ndarray) -> np.ndarray:
    """LCU branch weights |a_k|^2 from the prepared ancilla state."""
    ancilla = np.asarray(ancilla)
    if ancilla.shape != (ANCILLA_DIM,):
        raise ValueError(f"ancilla must be {ANCILLA_DIM}-dimensional")
    return np.abs(ancilla) ** 2


def n_readout(r: int) -> int:
    q = r // 2
    return 1 + q + q * (q - 1) // 2


@functools.cache
def readout_features(q: int) -> np.ndarray:
    """Diagonals multiplying each readout coefficient: I, Z_i, Z_i Z_j
    (computational order, qubit 0 = MSB).  Cached per q, so the array is
    read-only."""
    zs = 1.0 - 2.0 * (np.arange(2 ** q) >> np.arange(q)[::-1, None] & 1)
    feats = np.vstack([np.ones(2 ** q), zs, *(zs[i] * zs[j] for i in range(q)
                                              for j in range(i + 1, q))])
    feats.flags.writeable = False
    return feats


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
        rng = PhiloxStream(seed, 5)
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
        return {"kind": "qcnn", "r": self.r,
                "theta": vector_json(self.theta),
                "readout": vector_json(self.readout)}


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 20
    epochs: int = 20
    seed: int = 7

    def validate(self, n_train: int) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if not 1 <= self.batch_size <= n_train:
            raise ValueError(
                f"batch size must be in [1, {n_train}], got {self.batch_size}"
            )


@dataclass
class BranchStack:
    """The nine distinct branch images Q_k z of checked state rows z.

    ``images[k, i]`` is Q_k z_i, in one C-contiguous (9, rows, 2^r) array,
    so the convolution and its gradient are each one product over the
    first axis.  Indexing by an array of row indices selects rows, as it
    does on the rows themselves, into a new C-contiguous stack.
    """

    images: np.ndarray

    @staticmethod
    def of(r: int, Z) -> "BranchStack":
        """The stack of state rows Z (rows x 2^r), checked as inputs; a
        stack passes through.  Complex amplitudes are kept: the forward
        pass only uses |V|^2."""
        if isinstance(Z, BranchStack):
            return Z
        Z = np.asarray(Z)
        if require_finite(np.abs(Z), column="amplitude").shape[1] != 2 ** r:
            raise ValueError(f"state rows must have 2^{r} = {2 ** r} "
                             f"amplitudes, got {Z.shape[1]}")
        Z = Z.astype(complex if np.iscomplexobj(Z) else float, copy=False)
        images = np.empty((9, *Z.shape), Z.dtype)
        for k, source in enumerate(branch_sources(r)[:9]):
            # the sources are in range; mode "raise" would buffer the output
            np.take(Z, source, axis=1, out=images[k], mode="clip")
        return BranchStack(images)

    def __getitem__(self, rows) -> "BranchStack":
        return BranchStack(np.take(self.images, rows, axis=1))


def _forward_parts(model: QcnnModel, images: np.ndarray, ancilla: np.ndarray):
    """Batched forward pass of a (9, rows, 2^r) branch stack under an LCU
    ancilla.

    Returns (e, F, G, V) with logits e = (F @ readout) / G: V[i] is the
    unnormalised convolution image of sample i, G[i] its LCU post-selection
    probability and F[i, j] the expectation of the j-th readout diagonal
    against the unnormalised pooled operator.  Raises when some G[i] is
    essentially zero.  The tests compose the same stages one sample at a
    time as its reference (``tests/oracles.py``).
    """
    feats = readout_features(model.r // 2)
    folded = np.bincount(_BRANCH_CLASS, weights=branch_weights(ancilla),
                         minlength=9)
    V = (folded @ images.reshape(9, -1)).reshape(images.shape[1:])
    P = np.abs(V) ** 2
    G = P.sum(axis=1)
    if np.any(G < MIN_LCU_PROB):
        bad = int(np.argmin(G))
        raise ValueError(f"LCU post-selection probability {G[bad]:.3e} too "
                         f"small (sample {bad})")
    dh = feats.shape[1]
    F = P.reshape(P.shape[0], dh, dh).sum(axis=2) @ feats.T
    return (F @ model.readout) / G, F, G, V


def logits(model: QcnnModel, Z) -> np.ndarray:
    """Per-sample readout logits e = N / G of state rows or their stack."""
    return _forward_parts(model, BranchStack.of(model.r, Z).images,
                          prepare_lcu(model.theta))[0]


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
    return float(np.mean((np.asarray(e) >= 0.0) == (np.asarray(labels) > 0)))


# central finite-difference step of :func:`fd_gradient`
FD_STEP = 1e-5


def fd_gradient(model: QcnnModel, Z: np.ndarray,
                labels: np.ndarray) -> np.ndarray:
    """Central finite differences of the batch loss on every parameter: the
    reference that the checks hold :func:`loss_and_grad` against."""

    def loss_at(flat: np.ndarray) -> float:
        return bce_loss(logits(model.with_params(flat), Z), labels)

    params = model.params()
    steps = FD_STEP * np.eye(params.size)
    return np.array([loss_at(params + step) - loss_at(params - step)
                     for step in steps]) / (2.0 * FD_STEP)


def loss_and_grad(model: QcnnModel, Z, labels: np.ndarray):
    """Batch loss and its exact gradient over all trainable parameters, on
    state rows or their stack.

    One :func:`lcu_jacobian` call gives the ancilla a and da/dtheta, hence
    dw/dtheta = 2 Re(conj(a) da/dtheta).  With V the convolution image, c
    the readout diagonal and g = dl/de, the nine distinct products get
    dL/dw_k = 2 Re sum(U * Q_k Z) for U = (g / G) conj(V) (c - e), and the
    readout coefficients get g F / G.
    """
    images = BranchStack.of(model.r, Z).images
    labels = np.asarray(labels)
    a, da = lcu_jacobian(model.theta)
    e, F, G, V = _forward_parts(model, images, a)
    loss = bce_loss(e, labels)
    dl_de = (1.0 / (1.0 + np.exp(-e)) - (labels + 1) / 2.0) / e.size
    feats = readout_features(model.r // 2)
    c = np.repeat(model.readout @ feats, feats.shape[1])
    U = (dl_de / G)[:, None] * V.conj() * (c[None, :] - e[:, None])
    dl_dw = 2.0 * (images.reshape(9, -1) @ U.reshape(-1)).real
    grad_theta = dl_dw[_BRANCH_CLASS] @ (2.0 * (a.conj()[:, None] * da).real)
    return loss, np.concatenate([grad_theta, dl_de @ (F / G[:, None])])


class _Adam:
    """Adam at learning rate ``lr``, with Kingma & Ba's beta1, beta2, eps.

    Two scratch vectors are allocated once, beside ``m`` and ``v``, so a
    step allocates nothing: it updates ``params`` in place and returns
    that same array."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, n: int, lr: float):
        self.lr = lr
        self.m, self.v = np.zeros(n), np.zeros(n)
        self._step, self._denom = np.empty(n), np.empty(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # rounding exactly as b1 m + (1 - b1) g,
        # b2 v + ((1 - b2) g) g and params - lr mhat / (sqrt(vhat) + eps)
        self.t += 1
        step, denom = self._step, self._denom
        self.m *= self.beta1
        self.m += np.multiply(1.0 - self.beta1, grad, out=step)
        self.v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=step)
        self.v += np.multiply(step, grad, out=step)
        np.divide(self.m, 1.0 - self.beta1 ** self.t, out=step)
        step *= self.lr
        np.divide(self.v, 1.0 - self.beta2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params -= step
        return params


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


# keys of one TrainResult.history entry, in column order
HISTORY_FIELDS = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc")


def _fit(model, data: SplitData, cfg: TrainConfig, grad_fn,
         logits_fn) -> TrainResult:
    """Minibatch Adam over ``model.params()``, updated in place:
    ``grad_fn(model, X, y)`` gives a batch's (loss, gradient), which goes
    straight to the step and is released before the next batch;
    ``logits_fn(model, X)`` scores each epoch."""
    cfg.validate(len(data.train_y))
    params = model.params()
    opt = _Adam(params.size, cfg.learning_rate)
    shuffle = PhiloxStream(cfg.seed, 4)
    result = TrainResult()
    n = len(data.train_y)
    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            opt.step(params, grad_fn(model.with_params(params),
                                     data.train_x[idx], data.train_y[idx])[1])
        current = model.with_params(params)
        tr_e = logits_fn(current, data.train_x)
        te_e = logits_fn(current, data.test_x)
        result.history.append({
            "epoch": epoch,
            "train_loss": bce_loss(tr_e, data.train_y),
            "train_acc": accuracy_from_logits(tr_e, data.train_y),
            "test_loss": bce_loss(te_e, data.test_y),
            "test_acc": accuracy_from_logits(te_e, data.test_y),
        })
    result.final_params = params
    return result


def train(model: QcnnModel, data: SplitData, cfg: TrainConfig) -> TrainResult:
    """Minibatch Adam training; history records one entry per epoch.  The
    training and test rows are stacked once, and batches are rows of the
    stack."""
    stacked = replace(data, train_x=BranchStack.of(model.r, data.train_x),
                      test_x=BranchStack.of(model.r, data.test_x))
    return _fit(model, stacked, cfg, loss_and_grad, logits)


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
        rng = PhiloxStream(seed, 6)
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

    def _views(self, flat: np.ndarray):
        # weights then biases, shaped like this model's, as views of flat
        views, pos = [], 0
        for a in self.weights + self.biases:
            views.append(flat[pos:pos + a.size].reshape(a.shape))
            pos += a.size
        return views[:len(self.weights)], views[len(self.weights):]

    def with_params(self, flat: np.ndarray) -> "MlpModel":
        """A model on ``flat`` in ``params()`` order; its layers are views
        of ``flat``, not copies."""
        return MlpModel(*self._views(flat))

    def to_json_obj(self) -> dict:
        """The layer sizes, inputs first, and every parameter in
        ``params()`` order."""
        sizes = [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]
        return {"kind": "mlp", "sizes": sizes,
                "params": vector_json(self.params())}


def _mlp_forward(model: MlpModel, X: np.ndarray):
    """The layer inputs (features x samples, input rows first) and logits."""
    acts = [require_finite(X, column="amplitude").T]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(np.tanh(w @ acts[-1] + b[:, None]))
    return acts, (model.weights[-1] @ acts[-1] + model.biases[-1][:, None])[0]


def mlp_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    return _mlp_forward(model, X)[1]


def mlp_loss_and_grad(model: MlpModel, X: np.ndarray, labels: np.ndarray):
    """Loss plus backpropagated gradient in ``model.params()`` order, each
    layer's gradient written into its slice of one flat vector."""
    acts, logit = _mlp_forward(model, X)
    loss = bce_loss(logit, labels)
    y = (np.asarray(labels) + 1) / 2.0
    delta = ((1.0 / (1.0 + np.exp(-logit)) - y) / logit.size)[None, :]
    flat = np.empty(sum(w.size + b.size
                        for w, b in zip(model.weights, model.biases)))
    grads_w, grads_b = model._views(flat)
    for layer in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta, acts[layer].T, out=grads_w[layer])
        delta.sum(axis=1, out=grads_b[layer])
        if layer:
            delta = (model.weights[layer].T @ delta) * (1.0 - acts[layer] ** 2)
    return loss, flat


def mlp_baseline(model: MlpModel, data: SplitData,
                 cfg: TrainConfig) -> TrainResult:
    """Train the MLP under the same protocol as the quantum classifier."""
    return _fit(model, data, cfg, mlp_loss_and_grad, mlp_logits)
