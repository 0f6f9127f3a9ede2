"""Dataset loading, validation, deterministic splits, and JSON persistence.

The sonar benchmark (208 samples, 60 band-energy features in [0, 1], labels
mine/rock) ships with the package; :func:`sonar_path` locates the bundled
copy.  All randomised splits run through counter-based Philox generators
keyed on ``(seed, stream...)`` so every split is reproducible across runs
and platforms.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

SONAR_FEATURES = 60

# label encoding for the sonar task: mine (metal cylinder) = +1, rock = -1
SONAR_LABEL_MAP = {"M": 1, "R": -1}


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed on ``seed`` plus an optional stream id.

    Distinct ``stream`` tuples under the same seed give independent,
    reproducible streams (used to decouple e.g. fold shuffling from
    parameter initialisation).
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seed=ss))


def require_finite(values, row: str = "row",
                   column: str = "column") -> np.ndarray:
    """``values`` as a 2-D float array of finite reals.

    Complex input and other shapes are rejected, and so is the first NaN or
    infinity, named by its 1-based row and column.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"complex values where real {column}s are expected")
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
    perm = make_rng(seed, 0, stream).permutation(n_samples)
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
    perm = make_rng(seed, 1, rep).permutation(n_samples)
    test = np.sort(perm[:test_count])
    train = np.sort(perm[test_count:])
    return train, test


def save_jsonl(path, header: dict, records) -> None:
    """Write one header object plus one JSON object per record.

    Keys are sorted and floats go through ``repr`` (via ``json``), so output
    bytes are a pure function of the data.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_jsonl(path):
    """Read back (header, records) written by :func:`save_jsonl`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty JSON-lines file")
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    return header, records
