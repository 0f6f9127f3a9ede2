"""Dataset loading, validation, deterministic splits, and JSON-lines persistence.

The sonar benchmark (208 samples, 60 band-energy features in [0, 1], labels
mine/rock) ships with the package; :func:`sonar_path` locates the bundled
copy.  All randomised splits run through counter-based Philox generators
keyed on ``(seed, stream...)`` so every split is reproducible across runs
and platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

SONAR_SAMPLES = 208
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


def require_finite(values: np.ndarray, row: str, column: str) -> None:
    """Reject a 2-D array's first NaN or infinity, naming its 1-based place."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{row} {i + 1}, {column} {j + 1}: non-finite "
                         f"value {values[i, j]}")


@dataclass
class LabeledDataset:
    """Feature matrix with +/-1 labels.

    ``features`` has one sample per row and only finite entries: the first
    NaN or infinity is rejected, named by its 1-based row and column.
    ``meta`` carries free-form provenance (source file, generator
    parameters, ...).
    """

    features: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array (samples x features)")
        require_finite(self.features, "row", "column")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        bad = set(np.unique(self.labels)) - {-1, 1}
        if bad:
            raise ValueError(f"labels must be +1/-1, found {sorted(bad)}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict:
        return {
            "+1": int(np.sum(self.labels == 1)),
            "-1": int(np.sum(self.labels == -1)),
        }


def sonar_path() -> Path:
    """Path of the bundled sonar CSV."""
    return Path(resources.files("qrdr").joinpath("data/sonar.all-data"))


def load_sonar(path=None) -> LabeledDataset:
    """Parse a sonar-format CSV (60 floats + M/R label per row).

    Malformed rows raise ``ValueError`` naming the 1-based row number: wrong
    field count, non-numeric features, or labels other than M/R.  An empty
    file is rejected as well.  Any row count is accepted, so subsets and
    derived datasets written by :func:`save_csv` reload unchanged.
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
    return LabeledDataset(np.array(rows, dtype=float), np.array(labels),
                          meta={"source": str(path), "task": "sonar"})


def save_csv(path, ds: LabeledDataset) -> None:
    """Write a labeled dataset in the same CSV format the loader reads.

    Floats are serialised with ``repr`` so reloading reproduces the feature
    matrix bit for bit; labels map back to their M/R letters.
    """
    letter = {value: key for key, value in SONAR_LABEL_MAP.items()}
    with open(path, "w", encoding="ascii") as fh:
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write(f",{letter[int(label)]}\n")


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
        test = np.sort(chunk)
        train = np.sort(np.setdiff1d(perm, chunk, assume_unique=True))
        folds.append((train, test))
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
