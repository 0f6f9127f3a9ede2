"""Dataset loading, validation, deterministic splits, and the exact JSON
encoding of checkpoint vectors.

The sonar benchmark (208 samples, 60 band-energy features in [0, 1], labels
mine/rock) ships with the package; :func:`sonar_path` locates the bundled
copy.  Every random draw of the pipeline (splits, initialisations,
shuffles, Ising fields) comes from a counter-based Philox stream keyed on
``(seed, stream...)`` (:class:`PhiloxStream`), so every split is
reproducible across runs and platforms.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

SONAR_FEATURES = 60

# label encoding for the sonar task: mine (metal cylinder) = +1, rock = -1
SONAR_LABEL_MAP = {"M": 1, "R": -1}


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """numpy's Philox generator keyed on ``seed`` plus an optional stream id.

    Distinct ``stream`` tuples under the same seed give independent,
    reproducible streams.  This is the reference that :class:`PhiloxStream`
    is tested against, and the generator of the tests and ``qrdr verify``;
    the pipeline draws from :class:`PhiloxStream`, which needs no
    ``numpy.random``.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seed=ss))


_M32 = 0xFFFFFFFF
# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11): the two round
# multipliers, split into 32-bit halves for the high word of the product,
# and the two key increments
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MUL_LO, _MUL_HI = _MUL & _M32, _MUL >> 32
_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW, _HALF = np.uint64(_M32), np.uint64(32)


def _philox_key(entropy) -> tuple:
    """numpy's ``SeedSequence(entropy).generate_state(2, np.uint64)``: each
    int as little-endian 32-bit words, hashed into a pool of four."""
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _M32)
        while value > _M32:
            value >>= 32
            words.append(value & _M32)
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, state = 0x8B51F9DD, []
    for value in pool:
        value ^= mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox(key: tuple, first: int, count: int) -> np.ndarray:
    """The 64-bit outputs of counters ``first`` .. ``first + count - 1``,
    four per counter, in draw order.  Rows of ``x`` are the state words
    that are multiplied (0 and 2), rows of ``y`` the others (1 and 3)."""
    x = np.zeros((2, count), dtype=np.uint64)
    x[0] = np.arange(first, first + count, dtype=np.uint64)
    y = np.zeros_like(x)
    k = np.array([[key[0]], [key[1]]], dtype=np.uint64)
    for _ in range(10):
        x_lo, x_hi = x & _LOW, x >> _HALF
        t = _MUL_LO * x_hi + (_MUL_LO * x_lo >> _HALF)
        w = (t & _LOW) + _MUL_HI * x_lo
        hi = _MUL_HI * x_hi + (t >> _HALF) + (w >> _HALF)
        x, y, k = hi[::-1] ^ y ^ k, (x * _MUL)[::-1], k + _BUMP
    return np.stack((x[0], y[0], x[1], y[1]), axis=1).ravel()


class PhiloxStream:
    """The draws of ``make_rng(seed, *stream)`` for the two methods the
    pipeline calls, bit for bit, without importing ``numpy.random``.

    Importing ``numpy.random`` loads ``secrets``, ``hashlib`` and OpenSSL:
    5.3 MB more peak RSS (CPython 3.11, numpy 2.4.6, Linux).
    The outputs are numpy's Philox4x64-10 ones; a 32-bit draw takes the low
    half of one and keeps the high half for the next 32-bit draw.
    """

    def __init__(self, seed: int, *stream: int):
        self._key = _philox_key((int(seed),) + tuple(int(s) for s in stream))
        self._block = 1  # numpy's counter is incremented before each block
        self._pending = np.empty(0, dtype=np.uint64)
        self._half = None

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` 64-bit outputs.  A call of :func:`_philox`
        has the fixed cost of several hundred blocks, so a refill makes at
        least as many blocks as the stream has made, up to 256: a stream
        drawn from again and again, like the epoch shuffle, makes few
        calls."""
        short = count - self._pending.size
        if short > 0:
            blocks = max(-(-short // 4), min(self._block - 1, 256))
            self._pending = np.concatenate(
                (self._pending, _philox(self._key, self._block, blocks)))
            self._block += blocks
        out, self._pending = self._pending[:count], self._pending[count:]
        return out

    def permutation(self, n: int) -> np.ndarray:
        """``arange(n)`` shuffled as numpy shuffles it: Fisher-Yates from the
        top, each index drawn by masked rejection on 32-bit draws."""
        order = list(range(n))
        words = [] if self._half is None else [self._half]
        self._half, pos, end = None, 0, len(words)
        mask = (1 << (n - 1).bit_length()) - 1  # the least 2^b - 1 >= i
        for i in range(n - 1, 0, -1):
            if i <= mask >> 1:
                mask >>= 1
            while True:
                if pos == end:
                    drawn = self._take(n)
                    words = drawn.astype("<u8", copy=False).view("<u4")
                    words, pos, end = words.tolist(), 0, 2 * drawn.size
                j = words[pos] & mask
                pos += 1
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        # unused words go back: a high half first, then whole outputs
        left = len(words) - pos
        if left % 2:
            self._half = words[pos]
        if left > 1:
            self._pending = np.concatenate((drawn[-(left // 2):],
                                            self._pending))
        return np.array(order, dtype=int)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """``size`` (an int or a shape) draws from [low, high), 53 bits each;
        a kept half word stays for the next 32-bit draw."""
        low, high = float(low), float(high)
        draws = self._take(int(np.prod(size))) >> 11
        return (low + (high - low) * (draws * 2.0 ** -53)).reshape(size)


def require_finite(values, row: str = "row",
                   column: str = "column") -> np.ndarray:
    """``values`` as a 2-D float array of finite reals.

    Complex, string and object input is rejected, as are other shapes, and
    so is the first NaN or infinity, named by its 1-based row and column.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        kind = {"c": "complex", "U": "string", "S": "string"}.get(
            values.dtype.kind, str(values.dtype))
        raise ValueError(f"{kind} values where real {column}s are expected")
    values = values.astype(float, copy=False)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D array ({row}s x {column}s), "
                         f"got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{row} {i + 1}, {column} {j + 1}: non-finite "
                         f"value {values[i, j]}")
    return values


def vector_json(values) -> dict:
    """A vector of floats as JSON: base64 of its little-endian float64 bytes.

    Exact to the bit; ``np.frombuffer(base64.b64decode(obj["base64"]),
    "<f8")`` reads it back.  NaN or infinity raises ``ValueError``, as the
    JSON writer does for a number, so a diverged model writes no checkpoint.
    """
    values = require_finite(np.reshape(values, (1, -1)), row="vector",
                            column="parameter")[0]
    # binascii is the base64 module's encoder, already loaded with numpy,
    # so importing the package does no extra work
    return {"dtype": "<f8", "shape": [values.size],
            "base64": binascii.b2a_base64(values.astype("<f8", copy=False)
                                          .tobytes(), newline=False).decode()}


def require_labels(labels, count: int, row: str = "row") -> np.ndarray:
    """One +1/-1 label per row, as ints; the first other value is rejected,
    named by its 1-based row."""
    labels = np.asarray(labels)
    if labels.shape != (count,):
        raise ValueError(f"labels must align with the {count} {row}s, "
                         f"got shape {labels.shape}")
    bad = np.flatnonzero((labels != 1) & (labels != -1))
    if bad.size:
        raise ValueError(f"{row} {bad[0] + 1}: label {labels[bad[0]]} "
                         "is not +1/-1")
    return labels.astype(int)


@dataclass
class LabeledDataset:
    """Feature matrix with +/-1 labels.

    ``features`` has one sample per row and only finite real entries, and
    ``labels`` one +1/-1 per row: the first bad value is rejected, named by
    its 1-based row (and column).
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = require_finite(self.features)
        self.labels = require_labels(self.labels, self.features.shape[0])

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def sonar_path() -> Path:
    """Path of the bundled sonar CSV."""
    return Path(resources.files("qrdr").joinpath("data/sonar.all-data"))


def load_sonar(path=None) -> LabeledDataset:
    """Parse a sonar-format CSV (60 floats + M/R label per row).

    Malformed rows raise ``ValueError`` naming the 1-based row number: wrong
    field count, non-numeric features, or labels other than M/R.  An empty
    file is rejected as well.  Any row count is accepted, so a subset of
    the rows loads as well as the whole file.
    """
    path = Path(path) if path is not None else sonar_path()
    rows = []
    labels = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != SONAR_FEATURES + 1:
                raise ValueError(
                    f"row {lineno}: expected {SONAR_FEATURES} features plus a "
                    f"label, got {len(fields)} fields"
                )
            try:
                values = [float(x) for x in fields[:-1]]
            except ValueError as exc:
                raise ValueError(f"row {lineno}: non-numeric feature: {exc}") from None
            tag = fields[-1].strip()
            if tag not in SONAR_LABEL_MAP:
                raise ValueError(f"row {lineno}: unknown label {tag!r}")
            rows.append(values)
            labels.append(SONAR_LABEL_MAP[tag])
    if not rows:
        raise ValueError(f"{path}: no data rows found")
    return LabeledDataset(np.array(rows, dtype=float), np.array(labels))


def kfold_split(n_samples: int, k: int, seed: int, stream: int = 0):
    """Deterministic k-fold partition: list of (train_idx, test_idx) pairs.

    A single seeded permutation is chopped into k near-equal contiguous
    groups (exactly equal when k divides n); every index appears in exactly
    one test fold.  ``stream`` decorrelates nested splits (e.g. inner model
    selection) from the outer ones under the same seed.
    """
    if not 2 <= k <= n_samples:
        raise ValueError(f"need 2 <= k <= n_samples, got k={k}, n={n_samples}")
    perm = PhiloxStream(seed, 0, stream).permutation(n_samples)
    folds = []
    for chunk in np.array_split(perm, k):
        in_train = np.ones(n_samples, dtype=bool)
        in_train[chunk] = False
        folds.append((np.flatnonzero(in_train), np.sort(chunk)))
    return folds


def holdout_split(n_samples: int, test_count: int, seed: int, rep: int = 0):
    """One random train/test split; ``rep`` selects an independent repetition."""
    if not 1 <= test_count < n_samples:
        raise ValueError(f"test_count must be in [1, {n_samples - 1}]")
    perm = PhiloxStream(seed, 1, rep).permutation(n_samples)
    test = np.sort(perm[:test_count])
    train = np.sort(perm[test_count:])
    return train, test

