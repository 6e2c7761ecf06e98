"""Dataset ingestion and angle encoding.

Two input paths feed the same circuits:
- the Wisconsin Diagnostic Breast Cancer CSV (10 "mean" features, 10 qubits)
- 4x4 grayscale patches from PGM images (16 pixels, 16 qubits)

Features are min-max normalized to rotation angles in [0, pi]: the
training-set minimum maps to 0 (qubit stays |0>) and the maximum to pi
(qubit flipped to |1>). Bounds always come from the training subset only;
out-of-bounds test values are clamped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

N_FEATURES = 10
PATCH_SIZE = 4


@dataclass(frozen=True)
class Sample:
    features: tuple[float, ...]  # the 10 WDBC "mean" columns
    label: int  # 0 = benign, 1 = malignant

    def __post_init__(self):
        if len(self.features) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} features, got {len(self.features)}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class FeatureBounds:
    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must have equal length")
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise ValueError("each min must be <= its max")
            # An infinite span would make `encode` divide inf by inf.
            if not math.isfinite(float(hi) - float(lo)):
                raise ValueError(f"feature range {lo}..{hi} is not a finite float span")


def load_wbc_csv(path) -> list[Sample]:
    """Load the UCI WDBC layout: id, diagnosis (M/B), 30 real features.

    Keeps the 10 "mean" feature columns (2..11). A single header line is
    tolerated (detected by a non-numeric first field on row 1). Row order
    is preserved. Malformed rows are reported by 1-based row number.
    """
    samples: list[Sample] = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and not _is_number(row[0]):
                continue  # header line
            if len(row) < 2 + N_FEATURES:
                raise ValueError(f"row {lineno}: expected >= {2 + N_FEATURES} columns, got {len(row)}")
            diag = row[1].strip()
            if diag == "M":
                label = 1
            elif diag == "B":
                label = 0
            else:
                raise ValueError(f"row {lineno}: unknown diagnosis code {diag!r}")
            try:
                feats = tuple(float(v) for v in row[2 : 2 + N_FEATURES])
            except ValueError as e:
                raise ValueError(f"row {lineno}: non-numeric feature: {e}") from None
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"row {lineno}: non-finite feature in {feats}")
            samples.append(Sample(feats, label))
    if not samples:
        raise ValueError(f"{path}: no data rows")
    return samples


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def compute_bounds(samples) -> FeatureBounds:
    """Per-feature min/max over the given samples (training subset only)."""
    if not samples:
        raise ValueError("cannot compute bounds of an empty sample set")
    feats = np.array([s.features for s in samples])
    return FeatureBounds(tuple(feats.min(axis=0)), tuple(feats.max(axis=0)))


def encode(sample: Sample, bounds: FeatureBounds) -> np.ndarray:
    """Map features to rotation angles: min -> 0, max -> pi, clamped.

    A degenerate constant feature (min == max) encodes to 0.
    """
    x = np.asarray(sample.features)
    mins = np.asarray(bounds.mins)
    maxs = np.asarray(bounds.maxs)
    span = maxs - mins
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = np.where(span > 0, (x - mins) / np.where(span > 0, span, 1.0), 0.0)
    return np.clip(frac, 0.0, 1.0) * np.pi


def split(samples, train_count: int):
    """Deterministic prefix split: first train_count rows train, rest test."""
    if not 0 < train_count <= len(samples):
        raise ValueError(f"train_count must be in 1..{len(samples)}, got {train_count}")
    return list(samples[:train_count]), list(samples[train_count:])


def shuffled(samples, seed: int):
    """Seeded shuffle for the optional randomized split (off by default)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    return [samples[i] for i in order]


@dataclass(frozen=True)
class GrayPatch:
    pixels: tuple  # 4x4 rows of values in [0, 1]

    def __post_init__(self):
        if len(self.pixels) != PATCH_SIZE or any(len(r) != PATCH_SIZE for r in self.pixels):
            raise ValueError("patch must be 4x4")
        for row in self.pixels:
            for v in row:
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"pixel {v} outside [0, 1]")


def extract_patch(image: np.ndarray, row: int, col: int) -> GrayPatch:
    """Cut the 4x4 window at (row, col); must lie fully inside the image."""
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    if row < 0 or col < 0 or row + PATCH_SIZE > h or col + PATCH_SIZE > w:
        raise ValueError(f"4x4 window at ({row}, {col}) exceeds {h}x{w} image")
    window = image[row : row + PATCH_SIZE, col : col + PATCH_SIZE]
    return GrayPatch(tuple(tuple(float(v) for v in r) for r in window))


def patch_to_angles(patch: GrayPatch) -> np.ndarray:
    """Row-major pixel values scaled to angles in [0, pi] (16 qubits)."""
    return np.array(patch.pixels).reshape(-1) * np.pi


def load_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM, normalized by its maxval."""
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[:2]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file (magic {magic!r})")
    # header tokens: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    width, height, maxval = (int(t) for t in tokens)
    if maxval <= 0:
        raise ValueError(f"{path}: invalid maxval {maxval}")
    if magic == b"P2":
        pixels = raw[pos:].split()
        # -1 marks a token that is not a plain decimal integer
        values = np.array([int(t) if t.isdigit() else -1 for t in pixels], dtype=float)
    else:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        # A short body reads as fewer pixels, which the size check below names.
        count = min(width * height, max(0, len(raw) - pos) // dtype.itemsize)
        values = np.frombuffer(raw, dtype=dtype, count=count, offset=min(pos, len(raw))).astype(float)
    if values.size != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {values.size}")
    outside = (values < 0) | (values > maxval)
    if outside.any():
        i = int(np.argmax(outside))
        shown = pixels[i].decode(errors="replace") if magic == b"P2" else int(values[i])
        raise ValueError(
            f"{path}: pixel (row {i // width}, col {i % width}) is {shown!r}, "
            f"not an integer in 0..{maxval}"
        )
    return values.reshape(height, width) / maxval
