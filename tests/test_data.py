import re

import numpy as np
import pytest

from selbp.cli import main
from selbp.data import (
    DatasetDescriptor,
    build_dataset,
    ingest_csv,
    synth_blobs,
    synth_two_moons,
)
from selbp.errors import DimensionMismatch, MalformedRow


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TOY = "a,b,label\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n"


# ---------------------------------------------------------------- csv


def test_csv_split_counts(tmp_path):
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, TOY), split=0.5)
    ds = ingest_csv(desc)
    assert ds.X_train.shape == (2, 2) and ds.X_test.shape == (2, 2)
    assert ds.num_classes == 2


def test_csv_standardized_from_train_stats(tmp_path):
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, TOY), split=0.5)
    ds = ingest_csv(desc)
    np.testing.assert_allclose(ds.X_train.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ds.X_train.std(axis=0), 1.0, rtol=1e-12)


def test_csv_constant_column_maps_to_zero(tmp_path):
    text = "a,c,label\n1,7,0\n2,7,1\n3,7,0\n4,7,1\n"
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, text), split=0.5)
    ds = ingest_csv(desc)
    assert (ds.X_train[:, 1] == 0).all() and (ds.X_test[:, 1] == 0).all()


def test_csv_split_seed_determinism(tmp_path):
    path = write_csv(tmp_path, TOY)
    a = ingest_csv(DatasetDescriptor(kind="csv", path=path, split=0.5, split_seed=3))
    b = ingest_csv(DatasetDescriptor(kind="csv", path=path, split=0.5, split_seed=3))
    np.testing.assert_array_equal(a.X_train, b.X_train)
    np.testing.assert_array_equal(a.y_test, b.y_test)


def test_csv_feature_col_subset(tmp_path):
    desc = DatasetDescriptor(
        kind="csv", path=write_csv(tmp_path, TOY), split=0.5, feature_cols=("b",)
    )
    ds = ingest_csv(desc)
    assert ds.X_train.shape[1] == 1


def test_csv_malformed_row_reports_line(tmp_path):
    text = "a,label\n1,0\n2\n"
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, text), split=0.5)
    with pytest.raises(MalformedRow, match="line 3"):
        ingest_csv(desc)


def test_csv_reads_utf8_and_names_a_file_that_is_not(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes("é,label\n1,0\n2,1\n3,0\n4,1\n".encode("utf-8"))
    desc = DatasetDescriptor(kind="csv", path=str(path), split=0.5, feature_cols=("é",))
    assert ingest_csv(desc).X_train.shape == (2, 1)
    path.write_bytes(b"a,label\n1,0\n\xff,1\n")
    with pytest.raises(MalformedRow, match=f"{re.escape(str(path))} is not UTF-8 text"):
        ingest_csv(desc)


@pytest.mark.parametrize("text, feature_cols", [
    ("label,x0,x1\r\n0,1,2\r\n1,3,5\r\n0,5,6\r\n1,7,9\r\n", ()),
    ("x0,x1,label\n1,2,0\n3,5,1\n5,6,0\n7,9,1\n", ("x0", "x1")),
], ids=["label-first-crlf", "feature-cols"])
def test_csv_drops_a_leading_byte_order_mark(tmp_path, text, feature_cols):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    a, b = (ingest_csv(DatasetDescriptor(kind="csv", path=str(p), split=0.5,
                                         feature_cols=feature_cols)) for p in (plain, marked))
    for name in ("X_train", "y_train", "X_test", "y_test"):
        np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
    assert b.num_classes == a.num_classes == 2


def test_csv_non_numeric_feature(tmp_path):
    text = "a,label\n1,0\noops,1\n"
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, text), split=0.5)
    with pytest.raises(MalformedRow, match="line 3"):
        ingest_csv(desc)


def test_csv_negative_label(tmp_path):
    text = "a,label\n1,0\n2,-1\n"
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, text), split=0.5)
    with pytest.raises(MalformedRow, match="line 3"):
        ingest_csv(desc)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature(tmp_path, value):
    # float() reads all three; standardizing would turn the column into NaN.
    text = f"a,b,label\n1,2,0\n3,{value},1\n5,6,0\n7,8,1\n"
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, text), split=0.5)
    with pytest.raises(MalformedRow, match=f"line 3: non-finite feature 'b' = '{value}'"):
        ingest_csv(desc)


@pytest.mark.parametrize("values", [
    ["1e308", "1.2e308", "1.3e308", "1.5e308", "1.6e308", "1.7e308"],  # the mean overflows
    ["1e200", "-1e200", "1e200", "-1e200", "1e200", "-1e200"],  # the std overflows
])
def test_csv_column_overflowing_standardization_rejected(tmp_path, values):
    # Every value is finite, but the train-split statistics are not: the
    # column would come out all NaN, or silently all zero.
    rows = "".join(f"{i},{v},{i % 2}\n" for i, v in enumerate(values))
    path = write_csv(tmp_path, "a,x0,label\n" + rows)
    with pytest.raises(MalformedRow, match="feature column 'x0' overflows"):
        ingest_csv(DatasetDescriptor(kind="csv", path=path, split=0.5))


def test_csv_feature_cols_naming_the_label_rejected(tmp_path):
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, TOY), split=0.5,
                             feature_cols=("a", "label"))
    with pytest.raises(MalformedRow, match="name the label column 'label'"):
        ingest_csv(desc)


def test_csv_missing_label_column(tmp_path):
    desc = DatasetDescriptor(
        kind="csv", path=write_csv(tmp_path, TOY), split=0.5, label_col="target"
    )
    with pytest.raises(MalformedRow):
        ingest_csv(desc)


@pytest.mark.parametrize("split, counts", [(0.95, "10 training and 0 test"),
                                           (0.04, "0 training and 10 test")])
def test_blobs_empty_split_rejected(split, counts):
    desc = DatasetDescriptor(kind="blobs", n=10, classes=3, dim=2, split=split)
    with pytest.raises(DimensionMismatch, match=f"split {split} of n=10 rows leaves {counts}"):
        build_dataset(desc)


def test_csv_empty_test_split_rejected(tmp_path):
    path = write_csv(tmp_path, "a,label\n1,0\n2,1\n3,0\n")
    with pytest.raises(DimensionMismatch, match="n=3 rows leaves 3 training and 0 test"):
        ingest_csv(DatasetDescriptor(kind="csv", path=path, split=0.9))


@pytest.mark.parametrize("text, what", [("a,label\n", "no data rows"),
                                        ("label\n0\n1\n0\n1\n", "no feature column")])
def test_csv_without_rows_or_features_rejected(tmp_path, text, what):
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, text), split=0.5)
    with pytest.raises(DimensionMismatch, match=what):
        ingest_csv(desc)


@pytest.mark.parametrize("text, options", [
    ("", {}),  # no label column
    (TOY, {"feature_cols": ("z",)}),
    (TOY, {"feature_cols": ("a", "label")}),
    ("label\n0\n1\n", {}),  # no feature column
    ("a,label\n", {}),  # no data rows
    ("a,label\n1,0\n2\n", {}),
    ("a,label\n1,0\noops,1\n", {}),
    ("a,label\n1,0\nnan,1\n", {}),
    ("a,label\n1,0\n2,-1\n", {}),
    ("a,label\n1,0\n2,1\n3,0\n", {"split": 0.9}),  # an empty test split
    ("a,label\n1e308,0\n1.5e308,1\n1.7e308,0\n1.6e308,1\n", {}),  # overflows
])
def test_every_csv_error_starts_with_the_path(tmp_path, text, options):
    path = write_csv(tmp_path, text)
    desc = DatasetDescriptor(kind="csv", path=path, **{"split": 0.5, **options})
    with pytest.raises((MalformedRow, DimensionMismatch)) as exc:
        ingest_csv(desc)
    assert str(exc.value).startswith(path)


def test_empty_csv_file_has_no_label_column(tmp_path):
    desc = DatasetDescriptor(kind="csv", path=write_csv(tmp_path, ""), split=0.5)
    with pytest.raises(MalformedRow, match="label column"):
        ingest_csv(desc)


# ---------------------------------------------------------------- blobs


def test_blobs_balanced_classes():
    ds = synth_blobs(DatasetDescriptor(kind="blobs", n=300, classes=3, split=0.8))
    y = np.concatenate([ds.y_train, ds.y_test])
    counts = np.bincount(y, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_blobs_extreme_separation_is_linearly_separable():
    # At separation 50 sigma the nearest class mean classifies perfectly.
    desc = DatasetDescriptor(kind="blobs", n=600, classes=3, dim=2, separation=50.0)
    ds = synth_blobs(desc)
    centers = np.stack([ds.X_train[ds.y_train == c].mean(axis=0) for c in range(3)])
    d = ((ds.X_test[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert (d.argmin(axis=1) == ds.y_test).mean() == 1.0


def test_blobs_pairwise_mean_distances_match_separation():
    desc = DatasetDescriptor(
        kind="blobs", n=30000, classes=4, dim=5, separation=6.0, seed=1
    )
    ds = synth_blobs(desc)
    X = np.concatenate([ds.X_train, ds.X_test])
    y = np.concatenate([ds.y_train, ds.y_test])
    means = np.stack([X[y == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(means[i] - means[j]) - 6.0) < 0.1


def test_blobs_unit_within_class_variance():
    desc = DatasetDescriptor(kind="blobs", n=30000, classes=2, dim=3, separation=8.0)
    ds = synth_blobs(desc)
    X0 = ds.X_train[ds.y_train == 0]
    np.testing.assert_allclose(X0.std(axis=0), 1.0, atol=0.05)


def test_blobs_dim_too_small_rejected():
    # Refused when the descriptor is made, so a config read names the key's line.
    with pytest.raises(ValueError, match="dim 2 is below classes - 1 = 3"):
        DatasetDescriptor(kind="blobs", n=100, classes=4, dim=2)
    # The rule is the blobs construction's alone.
    DatasetDescriptor(kind="two_moons", n=100, classes=4, dim=2)


def test_blobs_seeded_determinism():
    desc = DatasetDescriptor(kind="blobs", n=100, seed=5)
    a, b = synth_blobs(desc), synth_blobs(desc)
    np.testing.assert_array_equal(a.X_train, b.X_train)


# ---------------------------------------------------------------- two moons


def test_two_moons_shapes_and_labels():
    ds = synth_two_moons(DatasetDescriptor(kind="two_moons", n=200, noise=0.05))
    assert ds.num_classes == 2
    y = np.concatenate([ds.y_train, ds.y_test])
    assert set(np.unique(y)) == {0, 1}
    assert abs(int((y == 0).sum()) - 100) <= 1


def test_two_moons_noiseless_on_unit_arcs():
    ds = synth_two_moons(DatasetDescriptor(kind="two_moons", n=400, noise=0.0))
    X = np.concatenate([ds.X_train, ds.X_test])
    y = np.concatenate([ds.y_train, ds.y_test])
    r0 = np.linalg.norm(X[y == 0], axis=1)
    np.testing.assert_allclose(r0, 1.0, atol=1e-12)
    r1 = np.linalg.norm(X[y == 1] - np.array([1.0, 0.5]), axis=1)
    np.testing.assert_allclose(r1, 1.0, atol=1e-12)


# ---------------------------------------------------------------- round trip


def test_write_then_ingest_roundtrip(tmp_path):
    cfg = write_csv(tmp_path, "dataset.kind = blobs\ndataset.n = 120\ndataset.classes = 3\n"
                    "dataset.dim = 2\ndataset.seed = 2\nstrategy.kinds = random\n", "exp.cfg")
    assert main(["synth-data", "--config", cfg, "--out", str(tmp_path)]) == 0
    path = tmp_path / "blobs.csv"
    ds = ingest_csv(DatasetDescriptor(kind="csv", path=str(path), split=0.8))
    assert ds.X_train.shape[0] + ds.X_test.shape[0] == 120
    assert ds.num_classes == 3


def test_build_dataset_dispatch():
    assert build_dataset(DatasetDescriptor(kind="blobs", n=30)).num_classes == 3
    assert build_dataset(DatasetDescriptor(kind="two_moons", n=30)).num_classes == 2
    with pytest.raises(ValueError):
        DatasetDescriptor(kind="mnist")
    for split in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="split must be in"):
            DatasetDescriptor(kind="blobs", split=split)
