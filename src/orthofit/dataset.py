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
import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateAxisError, FieldError, InsufficientDataError,
                     ParseError)

HEADER_ALIASES = (("x", "y", "z"), ("h", "t", "m"))
ROWS_PER_WRITE = 4096  # rows formatted into one string by write_rows
BLOCK_CHARS = 1 << 16  # text per bulk-parser block; its temporaries fit in cache
_LINE_END = re.compile(r"\r\n?|\n")  # where StringIO(newline="") ends a line


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
            raise FieldError(f"sample_factor must be >= 2, got "
                             f"{self.sample_factor}", "sample_factor")


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
    numeric columns picked by header name from each data row.

    The header is the first line, read as ``io.StringIO(text,
    newline="").readline()`` reads it: up to ``\\r\\n``, ``\\r`` or
    ``\\n``, which is what ``_LINE_END`` finds.  The body after it goes
    to ``_bulk_rows``, and when that declines, to ``_row_loop``, the
    reference parser, which raises every error and names every line; it
    cuts the body's lines after each ``_LINE_END`` match, as iterating
    over ``StringIO(text, newline="")`` cuts them.

    Proof that the bulk path returns the row loop's array whenever it
    returns one (d is the delimiter, N the header's field count, N >= 2):

    1. Lines.  ``csv.reader`` in the row loop gets lines that end at
       ``\\r\\n``, ``\\r`` and ``\\n`` only, and in an unquoted
       field it ends the record at ``\\r`` or ``\\n`` only.  The bulk path
       cuts blocks after a ``\\n`` and admits a ``\\r`` only directly before
       a ``\\n`` in a body whose header ends in ``\\r\\n``, so its lines are
       the reader's lines; a last line without a line end is a line to
       both.  It never calls ``str.splitlines``, which also splits at
       ``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and
       ``\\u2029``; those stay inside a cell in both paths.
    2. Rows.  Without a ``"`` or a NUL (which ``csv`` refuses before
       Python 3.11) in the body, the delimiter and the line end are the
       only characters the reader treats specially (no escape character,
       no skipped spaces), so a line's row is ``line.split(d)``: the cells
       that ``str.split`` makes of the block once each line end is
       replaced by d.
    3. Field counts.  Every line holds exactly N - 1 delimiters, so every
       row passes the arity check and none is blank (a blank row has
       fewer than two cells): each line is one data row, in file order.
    4. Field limit.  Every cell, wanted or not, has at most
       ``csv.field_size_limit()`` UTF-8 bytes, hence at most that many
       characters, so the reader raises no ``csv.Error``.
    5. Values.  The row loop keeps ``float(row[c])`` when that succeeds
       and is finite; the bulk path calls the same ``float`` on the same
       string.  When any call raises or gives a non-finite value, the
       bulk path declines and the row loop decides (a skipped row of
       blank cells, or the error with its line).  The one padding that
       float() refuses and the stripped retry reads, ``\\x1c``-``\\x1f``,
       never reaches float(): the scan declines it.
    """
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
    end = _LINE_END.search(raw)
    header_line = raw[:end.end()] if end else raw
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
    eol = "\r\n" if header_line.endswith("\r\n") else "\n"
    out = _bulk_rows(raw, len(header_line), eol, delim, len(header), cols)
    if out is None:
        out = _row_loop(raw, len(header_line), delim, len(header), cols)
    return out


def _bulk_rows(text: str, start: int, eol: str, delim: str, ncols: int,
               cols: list) -> np.ndarray | None:
    """The data rows of ``text[start:]`` as a (rows, len(cols)) array, or
    None when the text holds anything the proof in ``_read_columns`` does
    not cover.  Works through blocks of ``BLOCK_CHARS`` to
    ``2 * BLOCK_CHARS`` characters of whole lines, so its temporaries
    follow the block, not the file.  Every block is scanned before any
    is converted, so a line the proof does not cover costs one scan, not
    a float() pass over the lines before it."""
    if start == len(text):
        return None
    kinds = np.array([ord(delim)] * (ncols - 1) + [ord(c) for c in eol],
                     dtype=np.uint8)
    limit = csv.field_size_limit()
    blocks = []
    while start < len(text):
        stop = text.find("\n", start + BLOCK_CHARS,
                         start + 2 * BLOCK_CHARS) + 1
        if not stop:
            if len(text) - start > 2 * BLOCK_CHARS:
                return None  # a line over BLOCK_CHARS, or \r line ends
            stop = len(text)
        if not _block_is_plain(_whole_lines(text[start:stop], eol), kinds,
                               limit):
            return None
        blocks.append((start, stop))
        start = stop
    # every line is a data row, so the rows are the line ends, plus a last
    # line without one
    out = np.empty((text.count("\n", blocks[0][0]) + (text[-1] != "\n"),
                    len(cols)))
    row = 0
    for start, stop in blocks:
        block = _whole_lines(text[start:stop], eol)
        if eol != "\n":
            block = block.replace("\r", "")
        cells = block.replace("\n", delim).split(delim)
        del cells[-1]  # the empty string after the block's last line end
        n = len(cells) // ncols
        try:
            for j, c in enumerate(cols):
                out[row:row + n, j] = np.fromiter(
                    map(float, cells[c::ncols]), np.float64, n)
        except ValueError:
            return None
        row += n
    return out if np.isfinite(out).all() else None


def _whole_lines(block: str, eol: str) -> str:
    """``block`` with ``eol`` after its last line if it has no line end."""
    return block if block.endswith("\n") else block + eol


def _block_is_plain(block: str, kinds: np.ndarray, limit: int) -> bool:
    """Whether ``block`` is whole lines whose special characters (the
    delimiter, NUL, ``"``, ``\\r`` and ``\\n``) come in exactly the order
    ``kinds`` repeated, one repeat per line, with no cell over ``limit``
    UTF-8 bytes: one scan over the encoded block.  A lone surrogate
    encodes to three bytes of 0x80 or more, none of them special.
    ``\\x1c``-``\\x1f`` count as special too, so a cell that only the row
    loop's stripped retry reads declines here, before any float() call."""
    b = np.frombuffer(block.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    special = b == kinds[0]
    for code in (0, ord('"'), ord("\r"), ord("\n")):
        special |= b == code
    special |= b - np.uint8(0x1c) < 4
    at = np.flatnonzero(special)
    if len(at) % len(kinds) or not (
            b[at].reshape(-1, len(kinds)) == kinds).all():
        return False
    # a cell runs from one special character to the next
    return at[0] <= limit and int(np.diff(at).max(initial=1)) <= limit + 1


def _row_loop(text: str, start: int, delim: str, ncols: int,
              cols: list) -> np.ndarray:
    """Read the data rows of ``text[start:]``, after the header line, with
    ``csv.reader``, one row at a time: the parser of record, which alone
    reads quoted cells and raises ParseError with the line number.  The
    reader takes one line at a time and the values go to an array of
    doubles, so beyond the text the memory follows the values.

    float() ignores the whitespace str.strip() removes, except
    \\x1c-\\x1f: a cell that float() refuses is retried stripped, and only
    a row that still fails is tested for blankness.  line_num counts the
    lines the reader took, after the header's."""
    def lines(start):
        for end in _LINE_END.finditer(text, start):
            yield text[start:end.end()]
            start = end.end()
        if start < len(text):
            yield text[start:]
    values = array("d")
    append, isfinite = values.append, math.isfinite
    reader = csv.reader(lines(start), delimiter=delim)
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
    return np.frombuffer(values).reshape(-1, len(cols))


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
