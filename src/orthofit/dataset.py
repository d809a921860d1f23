"""Data ingestion, unit-cube normalization, and train/cv/test splitting.

Raw measurement triples (X, Y, Z) are mapped affinely onto [0, 1] per
coordinate before fitting; the recorded bounds invert the map so model
output comes back in original units.  Splitting sorts the points along a
chosen coordinate and deals them out in blocks of ``2 f`` so the three
groups are stratified along that axis, with the training fraction
``(f - 1) / f`` controlled by the sampling factor f.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxisError, InsufficientDataError, ParseError

HEADER_ALIASES = (("x", "y", "z"), ("h", "t", "m"))
ROWS_PER_WRITE = 4096  # rows formatted into one string by write_rows


@dataclass(frozen=True)
class NormalizationMap:
    """Coordinate bounds defining the affine maps between raw units and
    the unit cube.  ``z_min == z_max`` flags constant-z data: the forward
    map then sends every z to 0 and the inverse returns the constant."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def to_unit(self, X, Y, Z=None):
        x = (np.asarray(X, dtype=float) - self.x_min) / (self.x_max - self.x_min)
        y = (np.asarray(Y, dtype=float) - self.y_min) / (self.y_max - self.y_min)
        if Z is None:
            return x, y
        zr = self.z_max - self.z_min
        if zr == 0.0:
            z = np.zeros_like(np.asarray(Z, dtype=float))
        else:
            z = (np.asarray(Z, dtype=float) - self.z_min) / zr
        return x, y, z

    def to_raw(self, x, y, z):
        X = self.x_min + np.asarray(x, dtype=float) * (self.x_max - self.x_min)
        Y = self.y_min + np.asarray(y, dtype=float) * (self.y_max - self.y_min)
        Z = self.z_min + np.asarray(z, dtype=float) * (self.z_max - self.z_min)
        return X, Y, Z


@dataclass(frozen=True)
class NormalizedDataset:
    """Size-normalized samples: an (n, 3) array of unit-cube coordinates in
    original file order, plus the normalization map."""

    points: np.ndarray
    map: NormalizationMap

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.points[:, 2]

    @staticmethod
    def from_unit_points(points) -> "NormalizedDataset":
        """Wrap points whose coordinates already live on [0, 1] with an
        identity map.

        Handy for algebra-level tests and demos where normalization
        bookkeeping would only obscure coefficients.  The x and y
        coordinates must lie in [0, 1] (the basis is built for the unit
        square); z values pass through untouched.
        """
        arr = _point_array(points)
        xy = arr[:, :2]
        if xy.min() < 0.0 or xy.max() > 1.0:
            raise ValueError("x and y must lie in [0, 1] for an identity map")
        return NormalizedDataset(arr, NormalizationMap(0.0, 1.0, 0.0, 1.0, 0.0, 1.0))


@dataclass(frozen=True)
class SplitConfig:
    """How to partition the data.

    sample_axis : 'x' or 'y', the coordinate used for sorting.
    sample_factor : f >= 2; training receives (f - 1) / f of the points.
    """

    sample_axis: str = "y"
    sample_factor: int = 3

    def __post_init__(self):
        if self.sample_axis not in ("x", "y"):
            raise ValueError("sample_axis must be 'x' or 'y'")
        if self.sample_factor < 2:
            raise ValueError("sample_factor must be >= 2")


@dataclass(frozen=True)
class DataSplit:
    """Disjoint index lists into NormalizedDataset.points covering 1..N."""

    train_idx: np.ndarray
    cv_idx: np.ndarray
    test_idx: np.ndarray


def _point_array(points) -> np.ndarray:
    """``points`` as an (n, 3) float64 array; any other shape is an error."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {arr.shape}")
    return arr


def load_dataset(source) -> np.ndarray:
    """Parse delimiter-separated text with a header row into data points.

    Parameters
    ----------
    source : path, file object, or bytes
        Comma- or tab-separated text (auto-detected), UTF-8 or ASCII,
        with a header row naming the three numeric columns x,y,z or
        H,T,M (any case).

    Returns
    -------
    (n, 3) float64 array of (x, y, z) rows in file order.

    Raises
    ------
    ParseError
        Empty input, bytes that are not UTF-8, unknown header,
        non-numeric or non-finite field, or wrong row arity; the message
        carries the 1-based line number.
    """
    return _read_columns(source, 3)


def load_points(source) -> np.ndarray:
    """Parse (x, y) points: the format of load_dataset with the two
    columns x,y or H,T.  Returns an (n, 2) float64 array in file order
    and raises ParseError as load_dataset does."""
    return _read_columns(source, 2)


def _read_columns(source, width: int) -> np.ndarray:
    """The parser behind load_dataset and load_points: ``width`` finite
    numeric columns picked by header name from each data row."""
    try:
        if isinstance(source, bytes):
            raw = source
        elif hasattr(source, "read"):
            raw = source.read()  # a text source decodes all it has left here
        else:
            with open(source, "rb") as fh:
                raw = fh.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        bad = exc.object  # the undecoded bytes, after any byte-order mark
        raise ParseError(f"not UTF-8: byte 0x{bad[exc.start]:02x}",
                         line=bad.count(b"\n", 0, exc.start) + 1) from None
    fh = io.StringIO(raw, newline="")
    header_line = fh.readline()
    if not header_line.strip():
        raise ParseError("empty input: no header row", line=1)
    delim = "\t" if "\t" in header_line else ","
    try:
        header = [h.strip() for h in
                  next(csv.reader([header_line], delimiter=delim))]
    except csv.Error as exc:  # a cell beyond csv.field_size_limit()
        raise ParseError(str(exc), line=1) from None
    lower = [h.lower() for h in header]
    aliases = [a[:width] for a in HEADER_ALIASES]
    wanted = next((a for a in aliases if all(c in lower for c in a)), None)
    if wanted is None:
        known = " or ".join(",".join(a) for a in aliases)
        raise ParseError(f"header {header!r} does not contain the "
                         f"columns {known} (any case)", line=1)
    cols = [lower.index(c) for c in wanted]

    # float() ignores the whitespace str.strip() removes, except \x1c-\x1f:
    # a cell that float() refuses is retried stripped, and only a row that
    # still fails is tested for blankness.  line_num counts the lines the
    # reader took, after the header's.
    values: list[float] = []
    append, isfinite, ncols = values.append, math.isfinite, len(header)
    reader = csv.reader(fh, delimiter=delim)
    try:
        for row in reader:
            if len(row) != ncols:
                if not "".join(row).strip():
                    continue
                raise ParseError(f"expected {ncols} fields, got {len(row)}",
                                 line=reader.line_num + 1)
            for c in cols:
                try:
                    v = float(row[c])
                except ValueError:
                    try:
                        v = float(row[c].strip())
                    except ValueError:
                        if not "".join(row).strip():
                            break  # a blank row fails on its first cell
                        raise ParseError(
                            f"non-numeric field {row[c].strip()!r}",
                            line=reader.line_num + 1) from None
                if not isfinite(v):
                    raise ParseError(f"non-finite field {row[c].strip()!r}",
                                     line=reader.line_num + 1)
                append(v)
    except csv.Error as exc:  # a cell beyond csv.field_size_limit()
        raise ParseError(str(exc), line=reader.line_num + 1) from None
    if not values:
        raise ParseError("no data rows", line=2)
    return np.array(values).reshape(-1, width)


def save_dataset(points, path) -> None:
    """Write an (n, 3) point array as CSV with header x,y,z in the
    dialect load_dataset accepts; every value reads back bit for bit."""
    arr = _point_array(points)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,z\r\n")
        write_rows(fh, arr, "\r\n")


def write_rows(fh, table: np.ndarray, end: str) -> None:
    """Write each row of a 2-D float array to ``fh`` as ``.17g`` cells
    joined by commas and ended by ``end``: the bytes ``csv.writer`` writes
    for the same cells, since no ``.17g`` text needs quoting.  An integral
    cell of magnitude up to 2**53 prints as the integer, as ``csv.writer``
    prints the int.  Each block of ``ROWS_PER_WRITE`` rows is formatted
    as one string."""
    fmt = ",".join(["%.17g"] * table.shape[1]) + end
    for lo in range(0, table.shape[0], ROWS_PER_WRITE):
        block = table[lo:lo + ROWS_PER_WRITE]
        fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def normalize(points) -> NormalizedDataset:
    """Map each coordinate of an (n, 3) point array affinely onto [0, 1]
    (min -> 0, max -> 1).

    Requires at least three points, at least two distinct values on each
    independent axis and a finite max - min on every axis; constant z is
    allowed and maps to 0.
    """
    arr = _point_array(points)
    if arr.shape[0] < 3:
        raise InsufficientDataError("need at least 3 points to normalize")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points contain non-finite values")
    bounds = []
    for k, name in enumerate("xyz"):
        lo, hi = arr[:, k].min(), arr[:, k].max()
        if not math.isfinite(float(hi) - float(lo)):
            raise DegenerateAxisError(f"the {name} range {lo:g} .. {hi:g} "
                                      "overflows; cannot normalize")
        if lo == hi and name != "z":
            raise DegenerateAxisError(f"all {name} values equal ({lo}); cannot normalize")
        bounds += [lo, hi]
    nmap = NormalizationMap(*bounds)
    x, y, z = nmap.to_unit(arr[:, 0], arr[:, 1], arr[:, 2])
    return NormalizedDataset(np.column_stack([x, y, z]), nmap)


def split(data: NormalizedDataset, cfg: SplitConfig) -> DataSplit:
    """Deterministically partition points into train / cv / test groups.

    Points are sorted by the sampling coordinate (ties broken by the
    other coordinate, then by original position) and dealt out in blocks
    of ``2 f``: the first ``2 (f - 1)`` of each block go to training, the
    next to cross-validation, the last to testing.  A trailing partial
    block of k points sends ``k - k // f`` to training (pro-rata, rounded
    toward training) and any remainder to cross-validation, which keeps
    ``|train|`` within one point of ``N (f - 1) / f`` for every N.
    """
    f = cfg.sample_factor
    N = data.n
    if N < 2 * f:
        raise InsufficientDataError(
            f"need at least {2 * f} points for sample_factor={f}, got {N}")
    axis = data.x if cfg.sample_axis == "x" else data.y
    other = data.y if cfg.sample_axis == "x" else data.x
    order = np.lexsort((np.arange(N), other, axis))

    block = 2 * f
    pos = np.arange(N)
    n_full = (N // block) * block
    k = N - n_full
    in_full = pos < n_full
    pat = pos % block
    local = pos - n_full
    is_train = np.where(in_full, pat < block - 2, local < k - k // f)
    is_cv = np.where(in_full, pat == block - 2, local >= k - k // f)
    is_test = in_full & (pat == block - 1)
    return DataSplit(
        train_idx=order[is_train],
        cv_idx=order[is_cv],
        test_idx=order[is_test],
    )
