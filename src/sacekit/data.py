"""Data containers and CSV input/output.

A :class:`Dataset` holds one row per unit in five full-length columns: arm
``z``, covariates ``x``, substitution variable ``a`` (integer level codes),
survival ``s`` and outcome ``y``, which exists only for survivors and is NaN
exactly where ``s == 0``. The outcome is read only through
:meth:`Dataset.outcomes_at`, which refuses a truncated unit, so the NaN never
reaches arithmetic. On disk a truncated outcome is an empty CSV field.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError


class StratumLabel(enum.Enum):
    """Joint survival class: (survives if treated, survives if control)."""

    ALWAYS = "LL"
    PROTECTED = "LD"
    HARMED = "DL"
    NEVER = "DD"


@dataclass(frozen=True)
class Schema:
    """Column mapping for CSV files.

    ``covariates=None`` means: every column other than z/s/y/a, in header
    order.
    """

    z: str = "z"
    s: str = "s"
    y: str = "y"
    a: str = "a"
    covariates: tuple | None = None


class Dataset:
    """Immutable array-backed container of observational rows.

    Construct with :meth:`from_arrays` (the outcome array must be NaN
    exactly where ``s == 0``) or :func:`load_dataset`. All array accessors
    return read-only views.
    """

    def __init__(self, z, x, a, s, y, covariate_names):
        self._z = np.asarray(z, dtype=np.int64)
        self._x = np.asarray(x, dtype=float)
        self._a = np.asarray(a, dtype=np.int64)
        self._s = np.asarray(s, dtype=np.int64)
        self._y = np.asarray(y, dtype=float)
        n = self._z.shape[0]
        if self._x.ndim != 2 or self._x.shape[0] != n:
            raise DataError("covariate array must be (n, d)")
        if self._a.shape != (n,) or self._s.shape != (n,):
            raise DataError("z, a, s must all have length n")
        if self._y.shape != (n,):
            raise DataError("y must have one entry per unit")
        self.covariate_names = tuple(covariate_names)
        if len(self.covariate_names) != self._x.shape[1]:
            raise DataError("covariate_names must match the covariate columns")
        for arr in (self._z, self._x, self._a, self._s, self._y):
            arr.setflags(write=False)

    @classmethod
    def from_arrays(cls, z, x, a, s, y, covariate_names=None):
        """Build a dataset from full-length arrays.

        ``z`` and ``s`` must be 0 or 1, ``x`` must be finite, ``a`` must hold
        non-negative integer level codes below 2**63, ``y`` must have one
        entry per unit, NaN at every truncated unit (``s == 0``) and finite at
        every survivor, and ``x``, ``a`` and ``y`` must be bool, integer or
        float arrays (strings are not parsed); anything else is a :class:`DataError`.
        """
        z = np.asarray(z)
        x = np.atleast_2d(np.asarray(x))
        if x.shape[0] == 1 and z.shape[0] != 1:
            x = x.T
        a = np.asarray(a)
        s = np.asarray(s)
        y = np.asarray(y)
        if x.dtype.kind not in "biuf" or y.dtype.kind not in "biuf":
            raise DataError("covariates and outcomes must be real numbers")
        # v == 0 | v == 1 is np.isin(v, (0, 1)), str arrays included
        if not np.all((z == 0) | (z == 1)):
            raise DataError("z must be 0 or 1")
        if not np.all((s == 0) | (s == 1)):
            raise DataError("s must be 0 or 1")
        if not np.all(np.isfinite(x)):
            raise DataError("covariates must be finite")
        # np.floor has no loop for str or object codes
        if a.dtype.kind not in "biuf" or np.any(a != np.floor(a)) or np.any(a < 0):
            raise DataError("a must hold non-negative integer level codes")
        # the int64 codes of Dataset must not wrap around; integer codes are
        # compared as integers, since 2**63 - 1 rounds to 2**63 as a float
        codes = a if a.dtype.kind in "iu" else np.asarray(a, dtype=float)
        if np.any(codes >= 2**63):
            raise DataError("a must hold level codes below 2**63")
        if y.shape != s.shape:
            raise DataError("y must have one entry per unit")
        surv = s == 1
        if np.any(surv & ~np.isfinite(y)):
            raise DataError("outcome missing or non-finite for a survivor")
        if np.any(~surv & ~np.isnan(y)):
            raise DataError("outcome present for a truncated unit")
        if covariate_names is None:
            covariate_names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
        return cls(z, x, a, s, y, covariate_names)

    def __len__(self):
        return self._z.shape[0]

    @property
    def n_covariates(self):
        return self._x.shape[1]

    @property
    def z(self):
        return self._z

    @property
    def x(self):
        return self._x

    @property
    def a(self):
        return self._a

    @property
    def s(self):
        return self._s

    @property
    def a_levels(self):
        """Distinct level codes present, ascending."""
        return np.unique(self._a)

    def survivor_mask(self, arm=None):
        mask = self._s == 1
        if arm is not None:
            mask = mask & (self._z == arm)
        return mask

    def outcomes_at(self, mask):
        """Outcomes of the selected rows, which must all be survivors.

        ``mask`` is a boolean mask with one flag per row, or row indices.
        """
        if np.any(self._s[mask] != 1):
            raise DataError("requested the outcome of a truncated unit")
        return self._y[mask]

    def subset(self, indices):
        """New dataset of the given rows (duplicates allowed, e.g. resampling)."""
        idx = np.asarray(indices, dtype=np.int64)
        columns = (self._z, self._x, self._a, self._s, self._y)
        return Dataset.from_arrays(*(v.take(idx, axis=0) for v in columns), self.covariate_names)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.covariate_names == other.covariate_names
            and np.array_equal(self._z, other._z)
            and np.array_equal(self._x, other._x)
            and np.array_equal(self._a, other._a)
            and np.array_equal(self._s, other._s)
            and np.array_equal(self._y, other._y, equal_nan=True)
        )


# np.loadtxt settings for the data rows. Latin-1 maps every byte to one
# character, so text in columns that are not read never fails to decode.
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1, encoding="latin1")
# The csv.reader field limit of the per-row parsers: np.loadtxt has none,
# and this is the largest limit a C long holds on every platform.
_FIELD_LIMIT = 2**31 - 1
# Bytes of a CSV file searched at once by :func:`_scan_records`; bounds the
# masks and index arrays built per search.
_SCAN_BLOCK = 1 << 18
# Rows formatted per write in :func:`_write_csv`; bounds the number of field
# strings alive at once.
_SAVE_BLOCK_ROWS = 8192


class _Layout(NamedTuple):
    """Where a CSV file keeps each column, resolved from its header."""

    width: int
    text: tuple  # positions of z, s, a, y
    x: list
    x_names: list
    header_lines: int  # physical lines, which np.loadtxt skips: a quoted name may hold a break


class _Records(NamedTuple):
    """Byte offsets of a CSV file's records and unquoted delimiters."""

    fields: np.ndarray  # fields per record, the header included
    starts: np.ndarray  # first byte of each record
    term_starts: np.ndarray  # first byte of each record's terminator
    commas: np.ndarray  # unquoted delimiters, ascending


def load_dataset(path, schema=None):
    """Read a dataset from CSV.

    Column positions come from the header via ``schema`` (default column
    names: z, s, y, a; all remaining columns are covariates). Malformed
    rows raise :class:`DataError` with the 1-based row number.

    The data rows are read in one pass (z, s, a and y as byte strings, the
    covariates as floats) and checked as whole columns. The header must be
    UTF-8 (a BOM is dropped); no other byte has to decode, so a column that
    is not read may hold any text. Numeric fields must be ASCII and must not
    use digit-group underscores. A quoted field may hold a delimiter or a
    line break; a quote character inside an unquoted field is not supported.
    """
    schema = schema or Schema()
    layout = _read_layout(path, schema)
    records = _scan_records(path)
    if records.fields.size < 2:
        raise DataError(f"{path}: no data rows")
    miscounted = np.flatnonzero(records.fields[1:] != layout.width)
    if miscounted.size:
        raise _row_error(path, layout, schema, stop=int(miscounted[0]) + 2)
    widths = _text_widths(records, layout)
    # loadtxt silently truncates a field longer than its "S" width, so the
    # widths must bound every field: they come from the byte scan.
    dtype = np.dtype(
        [(name, f"S{w}") for name, w in zip("zsay", widths)]
        + [("x", float, (len(layout.x),))]
    )
    del records  # the offsets are not needed by the parse, which allocates its own
    try:
        rows = np.loadtxt(
            path,
            dtype=dtype,
            usecols=layout.text + tuple(layout.x),
            skiprows=layout.header_lines,
            **_LOADTXT,
        )
        z, s = (
            rows[name] if w == 1 else np.char.strip(rows[name])
            for name, w in zip("zs", widths)
        )
        y = np.char.strip(rows["y"])
        surv = s == b"1"
        if b"_" in rows["a"].tobytes() or b"_" in y.tobytes():  # astype reads 1_0 as 10
            raise ValueError("a digit-group underscore")
        a = rows["a"].astype(np.int64)
        y_surv = y[surv].astype(float)
    except (ValueError, OverflowError) as exc:
        raise _row_error(path, layout, schema, reason=str(exc)) from None
    bad = (
        ((z != b"0") & (z != b"1"))
        | ((s != b"0") & (s != b"1"))
        | (a < 0)
        | ~np.isfinite(rows["x"]).all(axis=1)
        | (~surv & (y != b""))
    )
    bad[surv] |= ~np.isfinite(y_surv)
    if bad.any():
        raise _row_error(path, layout, schema, stop=int(np.argmax(bad)) + 2)
    # the parsed text is freed as the dataset's own arrays are built
    del y
    z, s = (z == b"1").astype(np.int64), surv.astype(np.int64)
    x = np.ascontiguousarray(rows["x"])
    del rows
    y = np.full(s.shape[0], np.nan)
    y[surv] = y_surv
    # Every check of Dataset.from_arrays has passed above.
    return Dataset(z, x, a, s, y, layout.x_names)


def _open_csv(path):
    """``path`` opened for :func:`csv.reader`: UTF-8, any BOM dropped, and a
    byte that does not decode read as a lone surrogate, which fails only a
    field that is checked (a header name, or a numeric field: ASCII only)."""
    return open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")


def _read_layout(path, schema):
    """The one parse of a CSV header (UTF-8, any BOM dropped): each column has one role."""
    try:
        with _open_csv(path) as fh:
            reader = csv.reader(fh)
            header = [
                h.encode("utf-8", "surrogateescape").decode("utf-8").strip()
                for h in next(reader)
            ]
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    taken, roles = [], (schema.z, schema.s, schema.y, schema.a)
    for kind, names in (("", roles), ("covariate ", schema.covariates)):
        if names is None:
            names = [h for j, h in enumerate(header) if j not in taken]
        for name in names:
            count = header.count(name)
            if not count:
                raise DataError(f"{path}: missing {kind}column {name!r}")
            if count > 1 or header.index(name) in taken:
                fault = f"appears {count} times in the header" if count > 1 else "is already in use"
                raise DataError(f"{path}: {kind}column {name!r} {fault}")
            taken.append(header.index(name))
    (zi, si, yi, ai), x = taken[:4], taken[4:]
    return _Layout(len(header), (zi, si, ai, yi), x, [header[j] for j in x], reader.line_num)


def _position_dtype(size):
    """The integer type of byte offsets into a file of ``size`` bytes.

    int32 holds every offset up to and including ``size`` when the file is
    under 2 GiB, at half the memory of int64.
    """
    return np.int32 if size < 2**31 else np.int64


def _scan_records(path):
    """Record and delimiter offsets of a CSV file, the header included.

    Records end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in
    :func:`csv.reader`, and an empty record has no fields. A delimiter or
    line break after an odd number of quote characters is inside a quoted
    field and does not count.

    The file's bytes are searched :data:`_SCAN_BLOCK` bytes at a time, so
    no full-length mask is built; quote parity is tracked only when the
    file holds a quote character. Offsets are stored as
    :func:`_position_dtype`, and the file's bytes are freed before the
    delimiter offsets are joined into one array.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    quoted = b'"' in raw
    buf = np.frombuffer(raw, dtype=np.uint8)
    del raw
    size = buf.size
    dtype = _position_dtype(size)
    commas, ends = [np.empty(0, dtype)], [np.empty(0, dtype)]
    quotes_before = 0
    for lo in range(0, size, _SCAN_BLOCK):
        block = buf[lo : lo + _SCAN_BLOCK]
        comma = np.flatnonzero(block == ord(",")) + lo
        lf = np.flatnonzero(block == ord("\n")) + lo
        cr = np.flatnonzero(block == ord("\r")) + lo
        quotes = np.flatnonzero(block == ord('"')) + lo if quoted else None
        del block  # no view of the file's bytes outlives the loop
        crlf = buf[np.minimum(cr + 1, size - 1)] == ord("\n")
        end = np.sort(np.concatenate((lf, cr[~crlf])))
        if quoted:
            comma, end = (
                pos[(quotes_before + np.searchsorted(quotes, pos)) % 2 == 0]
                for pos in (comma, end)
            )
            quotes_before += quotes.size
        commas.append(comma.astype(dtype))
        ends.append(end.astype(dtype))
    ends = np.concatenate(ends)
    # Where each terminator starts: one byte earlier for "\r\n".
    term_starts = ends - (
        (ends > 0) & (buf[ends] == ord("\n")) & (buf[ends - 1] == ord("\r"))
    )
    del buf
    if size and (ends.size == 0 or ends[-1] != size - 1):
        # the last record has no terminator: it ends where the file does
        tail = np.array([size], dtype=dtype)
        ends, term_starts = np.concatenate((ends, tail)), np.concatenate((term_starts, tail))
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    commas = np.concatenate(commas)
    fields = np.diff(np.searchsorted(commas, ends), prepend=0) + 1
    return _Records(np.where(term_starts > starts, fields, 0), starts, term_starts, commas)


def _text_widths(records, layout):
    """Widest raw z, s, a and y field over the data rows, at least 1.

    Every data record has ``layout.width`` fields. A raw field spans its
    quotes too, so its length bounds the decoded field's from above.
    """
    rows = records.fields.size - 1
    first = np.searchsorted(records.commas, records.starts[1])
    bounds = records.commas[first:].reshape(rows, layout.width - 1)
    widths = []
    for j in layout.text:
        lo = records.starts[1:] if j == 0 else bounds[:, j - 1] + 1
        hi = bounds[:, j] if j < layout.width - 1 else records.term_starts[1:]
        widths.append(max(int((hi - lo).max()), 1))
    return widths


def _row_error(path, layout, schema, stop=None, reason="unsupported field syntax"):
    """The :class:`DataError` for the first bad row, found with the per-field parsers.

    Used only after the column reader has found a fault; ``stop`` is the row
    it flagged, if it knows one, and ``reason`` describes that fault in case
    the parsers accept every row up to it. The parsers read every file the
    column reader reads: under :func:`_open_csv`, with the field limit
    raised to :data:`_FIELD_LIMIT` for the call.
    """
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        with _open_csv(path) as fh:
            reader = csv.reader(fh)
            next(reader)
            for rownum, row in enumerate(reader, start=2):
                problem = _row_problem(row, layout, schema)
                if problem or rownum == stop:
                    return DataError(f"{path}: row {rownum}: {problem or reason}")
    except csv.Error as exc:  # a field over _FIELD_LIMIT
        return DataError(f"{path}: {exc}")
    finally:
        csv.field_size_limit(limit)
    return DataError(f"{path}: {reason}")


def _row_problem(row, layout, schema):
    """What the per-field parsers reject in one CSV row, or None."""
    if len(row) != layout.width:
        return f"expected {layout.width} fields, got {len(row)}"
    zi, si, ai, yi = layout.text
    try:
        _parse_binary(row[zi], schema.z)
        survivor = _parse_binary(row[si], schema.s) == 1
        _parse_code(row[ai], schema.a)
        for j, name in zip(layout.x, layout.x_names):
            _parse_float(row[j], name)
    except ValueError as exc:
        return str(exc)
    yfield = row[yi].strip()
    if not survivor:
        return "outcome present for a truncated unit" if yfield else None
    if yfield == "":
        return "survivor without an outcome"
    try:
        yv = _number(yfield, float)
    except ValueError:
        return f"bad outcome value {yfield!r}"
    return None if np.isfinite(yv) else "non-finite outcome"


def save_dataset(data, path, schema=None):
    """Write a dataset to CSV, inverse of :func:`load_dataset`.

    Floats are written with shortest round-trip repr, so save/load is exact
    and repeated saves of the same dataset are byte-identical. A schema's
    ``covariates`` renames the covariate columns and must name each one, and
    no two columns may share a name.
    """
    schema = schema or Schema()
    names = list(data.covariate_names if schema.covariates is None else schema.covariates)
    if len(names) != data.n_covariates:
        raise ValueError(
            f"schema names {len(names)} covariates, the data has {data.n_covariates}"
        )
    header = [schema.z, schema.s, schema.y, schema.a] + names
    if len({name.strip() for name in header}) != len(header):  # load strips names
        raise ValueError(f"the header names a column twice: {header}")
    _write_csv(path, header, [data.z, data.s, data._y, data.a, *data.x.T])


def _write_csv(path, header, columns, lineterminator="\r\n"):
    """Write ``header``, then the rows of the equal-length ``columns``, to ``path``.

    The one dialect of every CSV file sacekit writes: integers and strings by
    ``str``, finite floats by shortest round-trip ``repr``, a non-finite float
    as an empty field, in UTF-8. Only a header name can need quoting.
    """
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=lineterminator).writerow(header)
        for start in range(0, len(columns[0]), _SAVE_BLOCK_ROWS):
            fields = [_csv_fields(col[start : start + _SAVE_BLOCK_ROWS]) for col in columns]
            fh.write(lineterminator.join(map(",".join, zip(*fields))) + lineterminator)


def _csv_fields(values):
    """The CSV fields of one block of a column, in the dialect of :func:`_write_csv`."""
    if values.dtype.kind != "f":
        return map(str, values.tolist())
    finite = np.isfinite(values)
    if finite.all():
        return map(repr, values.tolist())
    fields = np.full(values.shape[0], "", dtype=object)
    fields[finite] = list(map(repr, values[finite].tolist()))
    return fields


def _parse_binary(text, name):
    v = text.strip()
    if v not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {text!r}")
    return int(v)


def _number(text, kind):
    """``kind(text)`` for a numeric field, which must be ASCII without digit-group underscores."""
    if not text.isascii() or "_" in text:
        raise ValueError
    return kind(text)


def _parse_code(text, name):
    v = text.strip()
    try:
        code = _number(v, int)
    except ValueError:
        raise ValueError(f"{name} must be an integer level code, got {text!r}") from None
    if code < 0:
        raise ValueError(f"{name} must be non-negative, got {code}")
    if code > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be below 2**63, got {code}")
    return code


def _parse_float(text, name):
    try:
        v = _number(text, float)
    except ValueError:
        raise ValueError(f"{name} must be numeric, got {text!r}") from None
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return v


@dataclass
class ValidationReport:
    """Summary counts and structural warnings for a dataset."""

    n: int
    arm_counts: dict
    survivor_counts: dict
    a_level_counts: dict
    covariate_summary: dict
    flags: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.flags

    def to_dict(self):
        return {**asdict(self), "ok": self.ok}


def validate(data):
    """Structural checks ahead of estimation. Never modifies the data.

    Flags (not errors): an empty treatment arm, an arm without survivors,
    no variation in the substitution variable among an arm's survivors,
    and constant covariate columns.
    """
    z, s, a = data.z, data.s, data.a
    arm_counts = {arm: int(np.sum(z == arm)) for arm in (0, 1)}
    survivor_counts = {arm: int(np.sum((z == arm) & (s == 1))) for arm in (0, 1)}
    a_level_counts = {}
    for arm in (0, 1):
        mask = (z == arm) & (s == 1)
        levels, counts = np.unique(a[mask], return_counts=True)
        a_level_counts[arm] = {int(k): int(c) for k, c in zip(levels, counts)}

    flags = []
    for arm in (0, 1):
        if arm_counts[arm] == 0:
            flags.append(f"arm {arm} is empty")
        elif survivor_counts[arm] == 0:
            flags.append(f"arm {arm} has no survivors")
        elif len(a_level_counts[arm]) < 2:
            flags.append(
                f"substitution variable takes a single level among arm {arm} survivors"
            )

    covariate_summary = {}
    for j, name in enumerate(data.covariate_names):
        col = data.x[:, j]
        covariate_summary[name] = {
            "mean": float(np.mean(col)) if len(col) else float("nan"),
            "sd": float(np.std(col)) if len(col) else float("nan"),
            "min": float(np.min(col)) if len(col) else float("nan"),
            "max": float(np.max(col)) if len(col) else float("nan"),
        }
        if len(col) and np.ptp(col) == 0.0:
            flags.append(f"covariate {name} is constant")

    return ValidationReport(
        n=len(data),
        arm_counts=arm_counts,
        survivor_counts=survivor_counts,
        a_level_counts=a_level_counts,
        covariate_summary=covariate_summary,
        flags=flags,
    )
