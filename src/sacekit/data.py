"""Data containers and CSV input/output.

A :class:`Dataset` holds one observational row per unit: treatment arm ``z``,
covariates ``x``, substitution variable ``a`` (integer level codes), survival
indicator ``s``, and the outcome ``y`` which exists only for survivors. The
outcome store is survivor-packed: there is no filler value for truncated
units, so their outcomes cannot leak into arithmetic. On disk a truncated
outcome is an empty CSV field.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError


class StratumLabel(enum.Enum):
    """Joint survival class: (survives if treated, survives if control)."""

    ALWAYS = "LL"
    PROTECTED = "LD"
    HARMED = "DL"
    NEVER = "DD"

    @property
    def survives_treated(self):
        return self in (StratumLabel.ALWAYS, StratumLabel.PROTECTED)

    @property
    def survives_control(self):
        return self in (StratumLabel.ALWAYS, StratumLabel.HARMED)

    @classmethod
    def from_potential(cls, s_treated, s_control):
        table = {
            (1, 1): cls.ALWAYS,
            (1, 0): cls.PROTECTED,
            (0, 1): cls.HARMED,
            (0, 0): cls.NEVER,
        }
        try:
            return table[(int(s_treated), int(s_control))]
        except KeyError:
            raise ValueError("potential survival indicators must be 0 or 1") from None


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

    def __init__(self, z, x, a, s, y_packed, covariate_names):
        self._z = np.asarray(z, dtype=np.int64)
        self._x = np.asarray(x, dtype=float)
        self._a = np.asarray(a, dtype=np.int64)
        self._s = np.asarray(s, dtype=np.int64)
        self._y = np.asarray(y_packed, dtype=float)
        n = self._z.shape[0]
        if self._x.ndim != 2 or self._x.shape[0] != n:
            raise DataError("covariate array must be (n, d)")
        if self._a.shape != (n,) or self._s.shape != (n,):
            raise DataError("z, a, s must all have length n")
        if int(self._s.sum()) != self._y.shape[0]:
            raise DataError("outcome store length must equal the survivor count")
        self._ypos = np.full(n, -1, dtype=np.int64)
        self._ypos[self._s == 1] = np.arange(self._y.shape[0])
        self.covariate_names = tuple(covariate_names)
        if len(self.covariate_names) != self._x.shape[1]:
            raise DataError("covariate_names must match the covariate columns")
        for arr in (self._z, self._x, self._a, self._s, self._y, self._ypos):
            arr.setflags(write=False)

    @classmethod
    def from_arrays(cls, z, x, a, s, y, covariate_names=None):
        """Build a dataset from full-length arrays.

        ``y`` must be NaN at every truncated unit (``s == 0``) and finite at
        every survivor; anything else is a :class:`DataError`.
        """
        z = np.asarray(z)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 1 and z.shape[0] != 1:
            x = x.T
        a = np.asarray(a)
        s = np.asarray(s)
        y = np.asarray(y, dtype=float)
        if not np.isin(z, (0, 1)).all():
            raise DataError("z must be 0 or 1")
        if not np.isin(s, (0, 1)).all():
            raise DataError("s must be 0 or 1")
        if np.any(a != np.floor(a)) or np.any(np.asarray(a, dtype=float) < 0):
            raise DataError("a must hold non-negative integer level codes")
        surv = s == 1
        if np.any(~np.isfinite(y[surv])):
            raise DataError("outcome missing or non-finite for a survivor")
        if np.any(~np.isnan(y[~surv])):
            raise DataError("outcome present for a truncated unit")
        if covariate_names is None:
            covariate_names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
        return cls(z, x, a, s, y[surv], covariate_names)

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
        """Outcomes for the selected units. Every selected unit must be a survivor."""
        mask = np.asarray(mask)
        if mask.dtype == bool:
            idx = np.flatnonzero(mask)
        else:
            idx = np.asarray(mask, dtype=np.int64)
        pos = self._ypos[idx]
        if np.any(pos < 0):
            raise DataError("requested the outcome of a truncated unit")
        return self._y[pos]

    def survivors(self, arm=None):
        """(x, a, y) arrays for survivors, optionally restricted to one arm."""
        mask = self.survivor_mask(arm)
        return self._x[mask], self._a[mask], self.outcomes_at(mask)

    def subset(self, indices):
        """New dataset of the given rows (duplicates allowed, e.g. resampling)."""
        idx = np.asarray(indices, dtype=np.int64)
        s = self._s[idx]
        y = np.full(idx.shape[0], np.nan)
        keep = s == 1
        y[keep] = self._y[self._ypos[idx[keep]]]
        return Dataset.from_arrays(
            self._z[idx], self._x[idx], self._a[idx], s, y, self.covariate_names
        )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.covariate_names == other.covariate_names
            and np.array_equal(self._z, other._z)
            and np.array_equal(self._x, other._x)
            and np.array_equal(self._a, other._a)
            and np.array_equal(self._s, other._s)
            and np.array_equal(self._y, other._y)
        )


# np.loadtxt settings for the data rows. Latin-1 maps every byte to one
# character, so text in columns that are not read never fails to decode.
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1, encoding="latin1")
# Rows formatted per ``writerows`` call in :func:`save_dataset`; bounds the
# number of field strings alive at once.
_SAVE_BLOCK_ROWS = 8192


class _Layout(NamedTuple):
    """Where a CSV file keeps each column, resolved from its header."""

    width: int
    text: tuple  # positions of z, s, a, y
    x: list
    x_names: list


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
    covariates as floats) and checked as whole columns. Numeric fields must
    be ASCII, and covariates must not use digit-group underscores. A quoted
    field may hold a delimiter or a line break; a quote character inside an
    unquoted field is not supported.
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
    # loadtxt skips physical lines, and a quoted header name may hold line
    # breaks, so the header's lines are counted up to its record's end.
    head = np.fromfile(path, dtype=np.uint8, count=int(records.starts[1])).tobytes()
    skip = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    try:
        rows = np.loadtxt(
            path,
            dtype=dtype,
            usecols=layout.text + tuple(layout.x),
            skiprows=skip,
            **_LOADTXT,
        )
        z, s = (
            rows[name] if w == 1 else np.char.strip(rows[name])
            for name, w in zip("zs", widths)
        )
        y = np.char.strip(rows["y"])
        surv = s == b"1"
        a = rows["a"].astype(np.int64)
        y_surv = y[surv].astype(float)
    except (ValueError, OverflowError) as exc:
        raise _row_error(path, layout, schema, reason=str(exc)) from None
    x = np.ascontiguousarray(rows["x"])
    bad = (
        ((z != b"0") & (z != b"1"))
        | ((s != b"0") & (s != b"1"))
        | (a < 0)
        | ~np.isfinite(x).all(axis=1)
        | (~surv & (y != b""))
    )
    bad[surv] |= ~np.isfinite(y_surv)
    if bad.any():
        raise _row_error(path, layout, schema, stop=int(np.argmax(bad)) + 2)
    # Every check of Dataset.from_arrays has passed above.
    return Dataset(
        (z == b"1").astype(np.int64),
        x,
        a,
        surv.astype(np.int64),
        y_surv,
        layout.x_names,
    )


def _read_layout(path, schema):
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    header = [h.strip() for h in header]
    for name in (schema.z, schema.s, schema.y, schema.a):
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    text = tuple(header.index(name) for name in (schema.z, schema.s, schema.a, schema.y))
    if schema.covariates is None:
        x = [j for j in range(len(header)) if j not in text]
    else:
        for name in schema.covariates:
            if name not in header:
                raise DataError(f"{path}: missing covariate column {name!r}")
        x = [header.index(name) for name in schema.covariates]
    return _Layout(len(header), text, x, [header[j] for j in x])


def _scan_records(path):
    """Record and delimiter offsets of a CSV file, the header included.

    Records end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in
    :func:`csv.reader`, and an empty record has no fields. A delimiter or
    line break after an odd number of quote characters is inside a quoted
    field and does not count.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    quotes = np.flatnonzero(buf == ord('"'))

    def unquoted(pos):
        return pos[np.searchsorted(quotes, pos) % 2 == 0]

    lf = np.flatnonzero(buf == ord("\n"))
    cr = np.flatnonzero(buf == ord("\r"))
    crlf = buf[np.minimum(cr + 1, buf.size - 1)] == ord("\n")
    ends = unquoted(np.sort(np.concatenate((lf, cr[~crlf]))))
    # Where each terminator starts: one byte earlier for "\r\n".
    term_starts = ends - (
        (ends > 0) & (buf[ends] == ord("\n")) & (buf[ends - 1] == ord("\r"))
    )
    if buf.size and (ends.size == 0 or ends[-1] != buf.size - 1):
        ends = np.append(ends, buf.size)
        term_starts = np.append(term_starts, buf.size)
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = unquoted(np.flatnonzero(buf == ord(",")))
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
    the parsers accept every row up to it.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for rownum, row in enumerate(reader, start=2):
                problem = _row_problem(row, layout, schema)
                if problem or rownum == stop:
                    return DataError(f"{path}: row {rownum}: {problem or reason}")
    except (UnicodeDecodeError, csv.Error) as exc:
        return DataError(f"{path}: {exc}")
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
        yv = float(yfield)
    except ValueError:
        return f"bad outcome value {yfield!r}"
    return None if np.isfinite(yv) else "non-finite outcome"


def save_dataset(data, path, schema=None):
    """Write a dataset to CSV, inverse of :func:`load_dataset`.

    Floats are written with shortest round-trip repr, so save/load is exact
    and repeated saves of the same dataset are byte-identical.
    """
    schema = schema or Schema()
    names = list(schema.covariates) if schema.covariates else list(data.covariate_names)
    header = [schema.z, schema.s, schema.y, schema.a] + names
    with open(path, "w", newline="") as fh:
        # Names may need quoting; data fields never do (numbers and empty
        # outcomes), so data rows are joined directly with the writer's
        # default "\r\n" terminator.
        csv.writer(fh).writerow(header)
        for start in range(0, len(data), _SAVE_BLOCK_ROWS):
            rows = slice(start, start + _SAVE_BLOCK_ROWS)
            s = data.s[rows]
            surv = np.flatnonzero(s == 1)
            y = np.full(s.shape[0], "", dtype=object)
            y[surv] = list(map(repr, data.outcomes_at(surv + start).tolist()))
            columns = [map(str, data.z[rows].tolist()), map(str, s.tolist()), y]
            columns.append(map(str, data.a[rows].tolist()))
            columns += [map(repr, col.tolist()) for col in data.x[rows].T]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _parse_binary(text, name):
    v = text.strip()
    if v not in ("0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {text!r}")
    return int(v)


def _parse_code(text, name):
    v = text.strip()
    try:
        if not v.isascii():
            raise ValueError
        code = int(v)
    except ValueError:
        raise ValueError(f"{name} must be an integer level code, got {text!r}") from None
    if code < 0:
        raise ValueError(f"{name} must be non-negative, got {code}")
    if code > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be below 2**63, got {code}")
    return code


def _parse_float(text, name):
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        v = float(text)
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
        return {
            "n": self.n,
            "arm_counts": self.arm_counts,
            "survivor_counts": self.survivor_counts,
            "a_level_counts": self.a_level_counts,
            "covariate_summary": self.covariate_summary,
            "flags": list(self.flags),
            "ok": self.ok,
        }


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
