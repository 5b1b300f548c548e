"""Dataset ingestion and synthesis: CSV files, Gaussian blobs, two moons."""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MalformedRow

DATASET_KINDS = ("csv", "blobs", "two_moons")


@dataclass
class DatasetDescriptor:
    kind: str = "blobs"
    # csv
    path: str = ""
    label_col: str = "label"
    feature_cols: tuple[str, ...] = ()  # empty = all non-label columns
    split: float = 0.8  # train fraction
    split_seed: int = 0
    # synthetic
    n: int = 3000
    classes: int = 3
    dim: int = 2
    separation: float = 4.0
    noise: float = 0.1  # two_moons jitter std
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if not 0 < self.split < 1:
            raise ValueError(f"split must be in (0, 1), got {self.split}")
        for name, low in (("classes", 1), ("dim", 1), ("seed", 0), ("split_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.n < self.classes:
            raise ValueError("n must be at least the number of classes")
        if self.kind == "blobs" and self.dim < self.classes - 1:
            raise ValueError(f"dim {self.dim} is below classes - 1 = {self.classes - 1}, "
                             "too few for equidistant blob means")
        self.feature_cols = tuple(self.feature_cols)


@dataclass
class Dataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    num_classes: int


def _split(X, y, num_classes, split, seed):
    """Seeded train/test split; raises :class:`DimensionMismatch` when
    either side would be empty."""
    n = X.shape[0]
    n_train = int(round(split * n))
    if not 0 < n_train < n:
        raise DimensionMismatch(
            f"split {split} of n={n} rows leaves {n_train} training and "
            f"{n - n_train} test rows; both must be non-empty"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    return Dataset(X[tr], y[tr], X[te], y[te], num_classes)


def _simplex_centers(classes, dim, side):
    """Class means with all pairwise distances equal to ``side``.

    Standard simplex construction in (classes - 1) dimensions, zero-padded
    to ``dim`` (at least ``classes - 1``) and centered at the origin.
    """
    k = classes
    verts = np.eye(k)  # pairwise distance sqrt(2)
    verts -= verts.mean(axis=0)
    # Project onto the (k-1)-dim subspace orthogonal to the all-ones vector.
    q, _ = np.linalg.qr(np.ones((k, 1)), mode="complete")
    basis = q[:, 1:]
    coords = verts @ basis  # (k, k-1), pairwise distance sqrt(2)
    coords *= side / np.sqrt(2.0)
    centers = np.zeros((k, dim))
    centers[:, : k - 1] = coords
    return centers


def synth_blobs(desc):
    """Isotropic unit-variance Gaussian clusters.

    ``separation`` is the pairwise class-mean distance in units of the
    within-class standard deviation. Class counts are balanced to within one.
    """
    rng = np.random.default_rng(desc.seed)
    centers = _simplex_centers(desc.classes, desc.dim, desc.separation)
    y = np.arange(desc.n) % desc.classes
    X = centers[y] + rng.standard_normal((desc.n, desc.dim))
    perm = rng.permutation(desc.n)
    X, y = X[perm], y[perm]
    return _split(X, y, desc.classes, desc.split, desc.split_seed)


def synth_two_moons(desc):
    """Two interleaving half-circles with Gaussian jitter; binary labels."""
    rng = np.random.default_rng(desc.seed)
    n0 = desc.n // 2
    n1 = desc.n - n0
    t0 = rng.uniform(0, np.pi, n0)
    t1 = rng.uniform(0, np.pi, n1)
    X0 = np.column_stack([np.cos(t0), np.sin(t0)])
    X1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    X = np.concatenate([X0, X1]) + desc.noise * rng.standard_normal((desc.n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.intp), np.ones(n1, dtype=np.intp)])
    perm = rng.permutation(desc.n)
    return _split(X[perm], y[perm], 2, desc.split, desc.split_seed)


def ingest_csv(desc):
    """Load a labeled CSV: finite numeric features, non-negative integer
    labels; anything else is a :class:`MalformedRow` naming its line. Every
    error this raises starts with ``desc.path``.

    Features are standardized per column using train-split statistics only;
    constant columns map to all-zero (variance guard 1e-12). The train/test
    split is seeded and reproducible.
    """
    try:
        with open(desc.path, encoding="utf-8", newline="") as fh:  # less one leading BOM
            reader = csv.reader(io.StringIO(fh.read().removeprefix("\ufeff"), newline=""))
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{desc.path} is not UTF-8 text: {exc}") from exc
    header = next(reader, [])  # an empty file has no label column
    if desc.label_col not in header:
        raise MalformedRow(f"{desc.path}: label column {desc.label_col!r} not in header")
    label_idx = header.index(desc.label_col)
    if desc.feature_cols:
        missing = [c for c in desc.feature_cols if c not in header]
        if missing:
            raise MalformedRow(f"{desc.path}: feature columns not in header: {missing}")
        if desc.label_col in desc.feature_cols:
            raise MalformedRow(
                f"{desc.path}: feature columns name the label column {desc.label_col!r}")
        feat_idx = [header.index(c) for c in desc.feature_cols]
    else:
        feat_idx = [i for i in range(len(header)) if i != label_idx]
    if not feat_idx:
        raise DimensionMismatch(f"{desc.path} has no feature column")

    rows, labels = [], []
    for lineno, row in enumerate(reader, start=2):
        try:  # every bad row is one MalformedRow naming the file and line
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            feats = [float(row[i]) for i in feat_idx]
            lab = int(row[label_idx])
            if not all(map(math.isfinite, feats)):
                bad = next(i for i, v in zip(feat_idx, feats) if not math.isfinite(v))
                raise ValueError(f"non-finite feature {header[bad]!r} = {row[bad]!r}")
            if lab < 0:
                raise ValueError(f"negative label {lab}")
        except ValueError as exc:
            raise MalformedRow(f"{desc.path}, line {lineno}: {exc}") from exc
        rows.append(feats)
        labels.append(lab)
    if not rows:
        raise DimensionMismatch(f"{desc.path} has no data rows")

    X = np.array(rows, dtype=np.float64)
    y = np.array(labels, dtype=np.intp)
    num_classes = int(y.max()) + 1
    try:
        ds = _split(X, y, num_classes, desc.split, desc.split_seed)
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{desc.path}: {exc}") from exc

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        mean = ds.X_train.mean(axis=0)
        std = ds.X_train.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        ds.X_train = (ds.X_train - mean) / std
        ds.X_test = (ds.X_test - mean) / std
    finite = np.isfinite(std) & np.isfinite(ds.X_train).all(0) & np.isfinite(ds.X_test).all(0)
    if not finite.all():
        bad = header[feat_idx[int(finite.argmin())]]
        raise MalformedRow(f"{desc.path}: feature column {bad!r} overflows when standardized")
    return ds


def build_dataset(desc):
    if desc.kind == "csv":
        return ingest_csv(desc)
    if desc.kind == "blobs":
        return synth_blobs(desc)
    return synth_two_moons(desc)
