import json

import numpy as np
import pytest

from oracles import read_vector
from qrdr.dataset import (LabeledDataset, SONAR_FEATURES, holdout_split,
                          kfold_split, load_sonar, make_rng, require_finite,
                          sonar_path, vector_json)


def test_make_rng_deterministic():
    a = make_rng(7, 2).normal(size=5)
    b = make_rng(7, 2).normal(size=5)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    assert not np.array_equal(make_rng(7, 0).normal(size=5),
                              make_rng(7, 1).normal(size=5))
    assert not np.array_equal(make_rng(7).normal(size=5),
                              make_rng(8).normal(size=5))


def test_labeled_dataset_validation():
    with pytest.raises(ValueError, match="2-D"):
        LabeledDataset(np.zeros(4), np.array([1]))
    with pytest.raises(ValueError, match="align"):
        LabeledDataset(np.zeros((3, 2)), np.array([1, -1]))
    with pytest.raises(ValueError, match=r"\+1/-1"):
        LabeledDataset(np.zeros((2, 2)), np.array([1, 0]))
    with pytest.raises(ValueError, match=r"row 2: label 1.5 is not \+1/-1"):
        LabeledDataset(np.zeros((2, 2)), np.array([1, 1.5]))
    with pytest.raises(ValueError, match="complex"):
        LabeledDataset(np.ones((2, 2)) * 1j, np.array([1, -1]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_labeled_dataset_rejects_non_finite(value):
    X = np.ones((3, 4))
    X[1, 2] = value
    X[2, 0] = np.nan
    with pytest.raises(ValueError, match="row 2, column 3: non-finite"):
        LabeledDataset(X, np.array([1, -1, 1]))


@pytest.mark.parametrize("values, cause", [
    ([["1e3", "2"]], "string values where real columns are expected"),
    (np.array([[b"1"]]), "string values where real columns are expected"),
    (np.array([[1.0, None]]), "object values where real columns are expected"),
], ids=["str", "bytes", "object"])
def test_require_finite_rejects_values_that_are_not_real_numbers(values,
                                                                 cause):
    # numpy would convert the strings to floats
    with pytest.raises(ValueError, match=cause):
        require_finite(values)


def test_load_rejects_nan_feature(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text(",".join(["0.5"] * 59 + ["nan", "M"]) + "\n")
    with pytest.raises(ValueError, match="row 1, column 60: non-finite"):
        load_sonar(p)


def test_sonar_shape(sonar):
    assert sonar.features.shape == (208, SONAR_FEATURES)
    assert sonar.n_features == 60


def test_sonar_class_counts_against_raw_file(sonar):
    # independent count: tally the trailing letter of every line ourselves
    text = sonar_path().read_text().strip().splitlines()
    counts = {"M": 0, "R": 0}
    for line in text:
        counts[line.rsplit(",", 1)[1]] += 1
    assert np.sum(sonar.labels == 1) == counts["M"]
    assert np.sum(sonar.labels == -1) == counts["R"]
    assert counts["M"] + counts["R"] == 208


def test_load_single_row(tmp_path):
    row = ",".join(["0.5"] * SONAR_FEATURES) + ",M\n"
    p = tmp_path / "one.csv"
    p.write_text(row)
    ds = load_sonar(p)
    assert ds.features.shape == (1, 60)
    assert ds.labels.tolist() == [1]


def test_load_rejects_bad_field_count(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.1,0.2,M\n")
    with pytest.raises(ValueError, match="row 1"):
        load_sonar(p)


def test_load_rejects_non_numeric(tmp_path):
    fields = ["0.1"] * SONAR_FEATURES
    fields[3] = "abc"
    p = tmp_path / "bad.csv"
    good = ",".join(["0.2"] * SONAR_FEATURES) + ",R\n"
    p.write_text(good + ",".join(fields) + ",M\n")
    with pytest.raises(ValueError, match="row 2.*non-numeric"):
        load_sonar(p)


def test_load_rejects_unknown_label(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(",".join(["0.1"] * SONAR_FEATURES) + ",Q\n")
    with pytest.raises(ValueError, match="row 1.*label"):
        load_sonar(p)


def test_load_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_sonar(p)


def _write_csv_lines(path, features, labels):
    # the sonar format, every float through repr
    path.write_text("".join(
        ",".join(map(repr, row)) + (",M\n" if y == 1 else ",R\n")
        for row, y in zip(features.tolist(), labels)))


def test_csv_round_trip_bit_exact(sonar, tmp_path):
    p = tmp_path / "copy.csv"
    _write_csv_lines(p, sonar.features, sonar.labels)
    back = load_sonar(p)
    assert np.array_equal(back.features, sonar.features)
    assert np.array_equal(back.labels, sonar.labels)


def test_csv_round_trip_subset(sonar, tmp_path):
    p = tmp_path / "sub.csv"
    _write_csv_lines(p, sonar.features[10:13], sonar.labels[10:13])
    back = load_sonar(p)
    assert np.array_equal(back.features, sonar.features[10:13])
    assert np.array_equal(back.labels, sonar.labels[10:13])


def test_kfold_208_by_8_gives_folds_of_26():
    folds = kfold_split(208, 8, seed=7)
    assert len(folds) == 8
    for train, test in folds:
        assert len(test) == 26
        assert len(train) == 182
        assert np.intersect1d(train, test).size == 0


def test_kfold_leave_one_out():
    folds = kfold_split(10, 10, seed=0)
    assert all(len(test) == 1 for _, test in folds)


def test_kfold_deterministic():
    a = kfold_split(50, 5, seed=9)
    b = kfold_split(50, 5, seed=9)
    for (tr1, te1), (tr2, te2) in zip(a, b):
        assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
    c = kfold_split(50, 5, seed=10)
    assert any(not np.array_equal(te1, te2)
               for (_, te1), (_, te2) in zip(a, c))


def test_kfold_rejects_bad_k():
    with pytest.raises(ValueError):
        kfold_split(10, 1, seed=0)
    with pytest.raises(ValueError):
        kfold_split(10, 11, seed=0)


def test_holdout_sizes():
    train, test = holdout_split(208, 20, seed=7)
    assert len(train) == 188 and len(test) == 20
    assert np.intersect1d(train, test).size == 0
    seen = np.sort(np.concatenate([train, test]))
    assert np.array_equal(seen, np.arange(208))


def test_holdout_single_training_sample():
    train, test = holdout_split(10, 9, seed=1)
    assert len(train) == 1 and len(test) == 9


def test_holdout_rejects_bad_count():
    with pytest.raises(ValueError):
        holdout_split(10, 0, seed=0)
    with pytest.raises(ValueError):
        holdout_split(10, 10, seed=0)


def test_holdout_reps_independent_and_deterministic():
    a = holdout_split(50, 10, seed=5, rep=2)
    b = holdout_split(50, 10, seed=5, rep=2)
    c = holdout_split(50, 10, seed=5, rep=3)
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_vector_json_round_trips_every_bit():
    values = np.array([0.1, -0.0, 5e-324, np.finfo(float).max, 1.0 / 3.0])
    obj = json.loads(json.dumps(vector_json(values), allow_nan=False))
    assert obj["shape"] == [5]
    assert read_vector(obj).tobytes() == values.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_json_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="parameter 3: non-finite"):
        vector_json([0.0, 1.0, bad])
