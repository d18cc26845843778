"""Tests for the dataset container, CSV round trip and structural checks."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sacekit import data as data_module
from sacekit.data import (
    Dataset,
    Schema,
    _position_dtype,
    _read_layout,
    _Records,
    _row_problem,
    _scan_records,
    load_dataset,
    save_dataset,
    validate,
)
from sacekit.errors import DataError
from sacekit.numerics import rng_stream
from sacekit.simulate import SimulationSetting, gen_dataset


def small_dataset():
    z = np.array([1, 1, 0, 0, 1, 0])
    x = np.array([[0.5, 1.0], [-0.5, 2.0], [0.0, 0.5], [1.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])
    a = np.array([0, 1, 0, 1, 1, 0])
    s = np.array([1, 1, 1, 0, 0, 1])
    y = np.array([2.5, -0.25, 1.0, np.nan, np.nan, 0.125])
    return Dataset.from_arrays(z, x, a, s, y, covariate_names=("age", "bmi"))


def test_from_arrays_accessors():
    data = small_dataset()
    assert len(data) == 6
    assert data.n_covariates == 2
    assert data.covariate_names == ("age", "bmi")
    assert list(data.a_levels) == [0, 1]
    assert_allclose(data.outcomes_at(data.survivor_mask()), [2.5, -0.25, 1.0, 0.125])
    # arrays are read-only views
    with pytest.raises(ValueError):
        data.z[0] = 0


def test_from_arrays_rejects_bad_inputs():
    z = np.array([1, 0])
    x = np.zeros((2, 1))
    ok_y = np.array([1.0, 2.0])
    with pytest.raises(DataError, match="z must be 0 or 1"):
        Dataset.from_arrays(np.array([1, 2]), x, [0, 0], [1, 1], ok_y)
    with pytest.raises(DataError, match="s must be 0 or 1"):
        Dataset.from_arrays(z, x, [0, 0], [1, 3], ok_y)
    with pytest.raises(DataError, match="non-negative integer level codes"):
        Dataset.from_arrays(z, x, [0, -1], [1, 1], ok_y)
    with pytest.raises(DataError, match="missing or non-finite for a survivor"):
        Dataset.from_arrays(z, x, [0, 0], [1, 1], np.array([1.0, np.nan]))
    with pytest.raises(DataError, match="outcome present for a truncated unit"):
        Dataset.from_arrays(z, x, [0, 0], [1, 0], np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_arrays_rejects_non_finite_covariates(bad):
    # load_dataset refuses such a covariate, so save_dataset could not
    # write a file that loads
    x = np.zeros((2, 2))
    x[1, 1] = bad
    with pytest.raises(DataError, match="^covariates must be finite$"):
        Dataset.from_arrays([1, 0], x, [0, 1], [1, 0], [1.0, np.nan])


@pytest.mark.parametrize(
    "a", [np.array(["0", "1"]), np.array([0, 1], dtype=object), np.array([0j, 1j])]
)
def test_from_arrays_rejects_level_codes_that_are_not_real_numbers(a):
    with pytest.raises(DataError, match="^a must hold non-negative integer level codes$"):
        Dataset.from_arrays([1, 0], np.zeros((2, 1)), a, [1, 0], [1.0, np.nan])


@pytest.mark.parametrize(
    "x, a, y, names, message",
    [
        ([1.0, 2.0], [0, 0], [1.0, 2.0], (), r"covariate array must be \(n, d\)"),
        ([[1.0], [2.0]], [0], [1.0, 2.0], ("x1",), "z, a, s must all have length n"),
        ([[1.0], [2.0]], [0, 0], [1.0], ("x1",), "y must have one entry per unit"),
        ([[1.0], [2.0]], [0, 0], [1.0, 2.0], (),
         "covariate_names must match the covariate columns"),
    ],
)
def test_dataset_constructor_checks_shapes(x, a, y, names, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        Dataset([1, 0], x, a, [1, 1], y, names)


@pytest.mark.parametrize(
    "x, y",
    [
        ([["a"], ["b"]], [1.0, np.nan]),
        ([["1.5"], ["2"]], [1.0, np.nan]),
        (np.zeros((2, 1), dtype=complex), [1.0, np.nan]),
        ([[0.0], [1.0]], ["x", "nan"]),
        ([[0.0], [1.0]], ["1.5", "nan"]),
        ([[0.0], [1.0]], np.array([1.0, np.nan], dtype=object)),
        ([[0.0], [1.0]], np.array([1.0 + 0j, np.nan])),
    ],
)
def test_from_arrays_rejects_covariates_and_outcomes_that_are_not_real_numbers(x, y):
    # numeric strings are not parsed either: only load_dataset reads text
    with pytest.raises(DataError, match="^covariates and outcomes must be real numbers$"):
        Dataset.from_arrays([1, 0], x, [0, 1], [1, 0], y)


@pytest.mark.parametrize("y", [[1.0, np.nan, 2.0], [1.0], [[1.0, np.nan]]])
def test_from_arrays_rejects_an_outcome_of_the_wrong_length(y):
    # y must line up with s: one entry per unit, NaN where s == 0
    with pytest.raises(DataError, match="y must have one entry per unit"):
        Dataset.from_arrays([1, 0], np.zeros((2, 1)), [0, 0], [1, 0], y)


def test_from_arrays_rejects_level_codes_beyond_int64():
    z, x, s, y = [1, 0], np.zeros((2, 1)), [0, 0], [np.nan, np.nan]
    for a in (
        [1e20, 2**63],
        [2.0**63, 0],
        [np.inf, 0],
        np.array([2**64 - 1, 0], dtype=np.uint64),
        np.array([2**63, 0], dtype=np.uint64),
    ):
        with pytest.raises(DataError, match=r"a must hold level codes below 2\*\*63"):
            Dataset.from_arrays(z, x, a, s, y)
    for a in (
        [2**62, 0],
        [2.0**62, 1.0],
        np.array([2**63 - 1, 0]),
        np.array([2**63 - 1, 0], dtype=np.uint64),
        np.array([True, False]),
    ):
        data = Dataset.from_arrays(z, x, a, s, y)
        assert data.a.tolist() == [int(v) for v in a]


# Dataset.from_arrays' checks in their order, each with its message
_Z, _S = "z must be 0 or 1", "s must be 0 or 1"
_A = "a must hold non-negative integer level codes"
_ALIVE = "outcome missing or non-finite for a survivor"
_DEAD = "outcome present for a truncated unit"
_FAULTS = {  # name -> (column, row, bad value, message of the check that catches it)
    "z": ("z", 0, 2, _Z),
    "s": ("s", 3, 3, _S),
    "a negative": ("a", 1, -1, _A),
    "a fractional": ("a", 2, 0.5, _A),
    "alive nan": ("y", 0, np.nan, _ALIVE),
    "alive inf": ("y", 1, -np.inf, _ALIVE),
    "dead": ("y", 2, 0.0, _DEAD),
}
_FAULT_SETS = [  # no fault, each alone, and pairs, which the earlier check reports
    (),
    *((name,) for name in _FAULTS),
    ("z", "s"),
    ("s", "a negative"),
    ("a fractional", "alive nan"),
    ("alive inf", "dead"),
    ("z", "dead"),
    ("s", "alive nan"),
]


@pytest.mark.parametrize(
    "dtype, faults",
    [
        (dtype, faults)
        for dtype in (float, bool, int, str)
        for faults in _FAULT_SETS
        # a bool array holds no value but 0 and 1
        if not (dtype is bool and {"z", "s"} & set(faults))
    ],
)
def test_from_arrays_reports_the_first_failing_check(dtype, faults):
    cols = {
        "z": np.array([1, 0, 1, 0], dtype=float),
        "s": np.array([1, 1, 0, 0], dtype=float),
        "a": np.array([0.0, 1.0, 2.0, 0.0]),
        "y": np.array([1.0, 2.0, np.nan, np.nan]),
    }
    for name in faults:
        column, row, value, _ = _FAULTS[name]
        cols[column][row] = value
    z, s = (cols[k].astype(int).astype(dtype) for k in "zs")
    x = np.zeros((4, 1))
    # np.isin(v, (0, 1)) holds for no str entry, so str-typed z always fails
    messages = [_Z] if dtype is str else [_FAULTS[name][3] for name in faults]
    order = [_Z, _S, _A, _ALIVE, _DEAD]
    if not messages:
        data = Dataset.from_arrays(z, x, cols["a"], s, cols["y"])
        assert data.z.tolist() == [1, 0, 1, 0] and data.s.tolist() == [1, 1, 0, 0]
        return
    with pytest.raises(DataError) as err:
        Dataset.from_arrays(z, x, cols["a"], s, cols["y"])
    assert str(err.value) == min(messages, key=order.index)


def test_subset_equals_from_arrays_on_the_same_rows():
    data = small_dataset()
    y = np.full(len(data), np.nan)
    y[data.s == 1] = data.outcomes_at(data.s == 1)
    # duplicates, reordered rows, no rows, only truncated units
    for rows in ([0, 0, 5, 2, 2], [5, 4, 3, 2, 1, 0], [], [3, 4, 4]):
        idx = np.array(rows, dtype=np.int64)
        want = Dataset.from_arrays(
            data.z[idx], data.x[idx], data.a[idx], data.s[idx], y[idx], data.covariate_names
        )
        got = data.subset(rows)
        assert got == want and len(got) == len(rows)
        assert got.outcomes_at(got.s == 1).tolist() == y[idx][data.s[idx] == 1].tolist()
    # equal datasets hold NaN at the same truncated units
    assert data.subset(np.arange(len(data))) == data


def test_outcomes_at_rejects_truncated_units():
    data = small_dataset()
    mask = np.zeros(len(data), dtype=bool)
    mask[3] = True  # truncated unit
    with pytest.raises(DataError, match="truncated unit"):
        data.outcomes_at(mask)


def test_outcomes_at_needs_one_flag_per_row():
    n = 10
    data = Dataset.from_arrays(np.arange(n) % 2, np.zeros((n, 1)), [0] * n, [1] * n, np.arange(n))
    assert data.outcomes_at(np.ones(n, dtype=bool)).tolist() == list(range(n))
    for mask in (np.ones(3, dtype=bool), np.ones((n, 1), dtype=bool)):
        with pytest.raises(IndexError):
            data.outcomes_at(mask)


def test_zero_covariate_columns_supported():
    data = Dataset.from_arrays(
        np.array([1, 0]), np.zeros((2, 0)), [0, 1], [1, 1], np.array([1.0, 2.0])
    )
    assert data.n_covariates == 0
    assert data.x.shape == (2, 0)


def row_fields(data, i):
    """Row ``i`` as the CSV fields ``save_dataset`` writes: z, s, y, a, then x."""
    s = int(data.s[i])
    y = repr(float(data.outcomes_at([i])[0])) if s == 1 else ""
    head = [str(int(data.z[i])), str(s), y, str(int(data.a[i]))]
    return head + [repr(float(v)) for v in data.x[i]]


def test_subset_rows():
    data = small_dataset()
    sub = data.subset([0, 2, 5])
    assert len(sub) == 3
    assert row_fields(sub, 0) == ["1", "1", "2.5", "0", "0.5", "1.0"]
    assert tuple(sub.x[1]) == (0.0, 0.5)
    # a truncated unit keeps no outcome
    assert row_fields(data.subset([3]), 0)[2] == ""


def test_save_load_roundtrip(tmp_path):
    data = small_dataset()
    p = tmp_path / "d.csv"
    save_dataset(data, p)
    back = load_dataset(p)
    assert back == data
    # byte-identical on a second save
    p2 = tmp_path / "d2.csv"
    save_dataset(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_save_with_a_covariate_schema(tmp_path):
    data = small_dataset()
    p = tmp_path / "renamed.csv"
    for names in (("age",), ("age", "bmi", "sex"), ()):
        with pytest.raises(ValueError, match="the data has 2"):
            save_dataset(data, p, Schema(covariates=names))
        assert not p.exists()
    schema = Schema(z="treat", covariates=("height", "weight"))
    save_dataset(data, p, schema)
    back = load_dataset(p, schema)
    assert back.covariate_names == ("height", "weight")
    for column in ("z", "x", "a", "s"):
        assert np.array_equal(getattr(back, column), getattr(data, column))
    survivors = data.survivor_mask()
    assert np.array_equal(back.outcomes_at(survivors), data.outcomes_at(survivors))


def test_load_with_custom_schema(tmp_path):
    p = tmp_path / "renamed.csv"
    p.write_text("treat,alive,outcome,marker,age\n1,1,3.5,0,44\n0,0,,1,51\n")
    schema = Schema(z="treat", s="alive", y="outcome", a="marker")
    data = load_dataset(p, schema=schema)
    assert len(data) == 2
    assert data.covariate_names == ("age",)
    assert_allclose(data.outcomes_at(data.survivor_mask()), [3.5])


@pytest.mark.parametrize(
    "covariates, name", [(("age", "age"), "age"), (("a", "age"), "a"), (("z",), "z")]
)
def test_load_rejects_a_covariate_column_read_twice(tmp_path, covariates, name):
    # a column is read once: not twice as a covariate, nor as z, s, y or a too
    p = tmp_path / "schema.csv"
    p.write_text("z,s,y,a,age\n1,1,2.0,0,40\n")
    with pytest.raises(DataError, match=f"covariate column '{name}' is already in use$"):
        load_dataset(p, Schema(covariates=covariates))


def test_save_rejects_a_header_that_names_a_column_twice(tmp_path):
    # such a header would not load back: each column has one role
    data = small_dataset()
    p = tmp_path / "twice.csv"
    # load_dataset strips a header name, so " z" is z again
    for schema in (
        Schema(s="z"), Schema(covariates=("z", "bmi")), Schema(covariates=(" z", "bmi"))
    ):
        with pytest.raises(ValueError, match="the header names a column twice"):
            save_dataset(data, p, schema)
        assert not p.exists()


@pytest.mark.parametrize(
    "header, schema, message",
    [
        ("z,s,y,a,x1", Schema(a="z"), "column 'z' is already in use"),
        ("z,s,y,a,x1", Schema(y="s"), "column 's' is already in use"),
        ("z,s,y,z,a", Schema(), "column 'z' appears 2 times in the header"),
        ("z,s,y,a,age,age", Schema(), "covariate column 'age' appears 2 times in the header"),
        ("z,s,y,a,age,age", Schema(covariates=("age",)),
         "covariate column 'age' appears 2 times in the header"),
    ],
)
def test_load_gives_each_column_one_role(tmp_path, header, schema, message):
    p = tmp_path / "roles.csv"
    p.write_text(header + "\n1,1,2.0,0,4,5\n")
    with pytest.raises(DataError, match=f"{message}$"):
        load_dataset(p, schema)


def test_load_drops_a_utf8_bom(tmp_path):
    plain = tmp_path / "plain.csv"
    save_dataset(small_dataset(), plain)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_dataset(bom) == load_dataset(plain) == small_dataset()
    # the row parsers read the file as the header parse does
    bom.write_bytes(b"\xef\xbb\xbfz,s,y,a\n1,1,2.0,0\n1,1,oops,0\n")
    with pytest.raises(DataError, match="row 3: bad outcome value 'oops'$"):
        load_dataset(bom)


def test_load_errors_carry_row_numbers(tmp_path):
    def attempt(body):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(DataError) as err:
            load_dataset(p)
        return str(err.value)

    assert "empty file" in attempt("")
    assert "missing column 'y'" in attempt("z,s,a\n1,1,0\n")
    p = tmp_path / "schema.csv"
    p.write_text("z,s,y,a,age\n1,1,2.0,0,40\n")
    with pytest.raises(DataError, match="missing covariate column 'bmi'$"):
        load_dataset(p, Schema(covariates=("age", "bmi")))
    # int() reads the Arabic-Indic digit one as 1; the loader takes ASCII only
    assert "row 2: a must be an integer level code" in attempt("z,s,y,a\n1,1,2.0,\u0661\n")
    assert "no data rows" in attempt("z,s,y,a\n")
    assert "row 2: survivor without an outcome" in attempt("z,s,y,a\n1,1,,0\n")
    assert "row 3: bad outcome value" in attempt("z,s,y,a\n1,1,2.0,0\n1,1,oops,0\n")
    assert "row 2: non-finite outcome" in attempt("z,s,y,a\n1,1,inf,0\n")
    assert "row 2: outcome present for a truncated unit" in attempt(
        "z,s,y,a\n1,0,2.0,0\n"
    )
    assert "row 2" in attempt("z,s,y,a\n1,1,2.0\n")  # short row


# Valid rows ahead of the bad one push it past the first save block and the
# first parse chunk (numpy's loadtxt reads 50000 rows at a time).
PREFIX_ROWS = 50_010


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("1,1,,0,0.5", "survivor without an outcome"),
        ("1,1,oops,0,0.5", "bad outcome value 'oops'"),
        ("1,1,\uff12.0,0,0.5", "bad outcome value '\uff12.0'"),  # float() reads a fullwidth 2
        ("1,1,inf,0,0.5", "non-finite outcome"),
        ("1,0,2.0,0,0.5", "outcome present for a truncated unit"),
        ("1,0,nan,0,0.5", "outcome present for a truncated unit"),
        ("1,1,2.0,0", "expected 5 fields, got 4"),
        ("1,1,2.0,0,0.5,7", "expected 5 fields, got 6"),
        ("", "expected 5 fields, got 0"),
        ("2,1,2.0,0,0.5", "z must be 0 or 1, got '2'"),
        ("1,1.0,2.0,0,0.5", "s must be 0 or 1, got '1.0'"),
        ("1,1,2.0,-1,0.5", "a must be non-negative, got -1"),
        ("1,1,2.0,1.5,0.5", "a must be an integer level code, got '1.5'"),
        ("1,1,2.0,99999999999999999999,0.5", "a must be below 2**63"),
        ("1,1,2.0,0,abc", "x1 must be numeric, got 'abc'"),
        ("1,1,2.0,0,1_0", "x1 must be numeric, got '1_0'"),
        ("1,1,2.0,0,nan", "x1 must be finite, got 'nan'"),
        ("1,1,2.0,0,-inf", "x1 must be finite, got '-inf'"),
    ],
)
def test_load_errors_name_rows_past_the_first_block(tmp_path, bad_row, message):
    p = tmp_path / "late.csv"
    lines = ["z,s,y,a,x1"] + ["1,1,0.5,0,1.5"] * PREFIX_ROWS + [bad_row, "0,0,,1,2.5"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(p)
    assert f"row {PREFIX_ROWS + 2}: {message}" in str(err.value)


def test_load_accepts_quoting_crlf_and_padding(tmp_path):
    # Every field below loads exactly as the csv module reads it.
    p = tmp_path / "dialect.csv"
    p.write_bytes(
        b'"z","s",y,a,x1\r\n'
        b'" 1 ",1 ,"2.5", 0,"-0.0"\r\n'
        b"0, 0,,\"3\",1e-3\r\n"
        b"\t1,\"1\", -7.25 ,+2, 4.5 \r\n"
    )
    data = load_dataset(p)
    expected = Dataset.from_arrays(
        [1, 0, 1],
        [[-0.0], [0.001], [4.5]],
        [0, 3, 2],
        [1, 0, 1],
        [2.5, np.nan, -7.25],
        covariate_names=("x1",),
    )
    assert data == expected
    assert np.signbit(data.x[0, 0])


def test_load_counts_fields_outside_quotes(tmp_path):
    # A quoted delimiter or line break in a column that is not read is data.
    p = tmp_path / "names.csv"
    p.write_text('z,s,y,a,name,age\n1,1,2.0,0,"Doe, J",44\n0,0,,1,"line\nbreak",51\n')
    data = load_dataset(p, schema=Schema(covariates=("age",)))
    assert data.covariate_names == ("age",)
    assert data.x[:, 0].tolist() == [44.0, 51.0]
    assert data.z.tolist() == [1, 0]
    bad = tmp_path / "bad.csv"
    bad.write_text('z,s,y,a,name\n1,1,2.0,0,"Doe, J",extra\n')
    with pytest.raises(DataError, match="row 2: expected 5 fields, got 6"):
        load_dataset(bad)


def test_load_reports_undecodable_files_as_data_errors(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"z,s,y,a,x1\n1,1,2.0,0,\xff\n")
    with pytest.raises(DataError):
        load_dataset(p)


def reference_load(path, schema=None):
    """Per-row reference loader: ``csv.reader`` plus the per-field parsers."""
    schema = schema or Schema()
    layout = _read_layout(path, schema)
    zi, si, ai, yi = layout.text
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rownum, row in enumerate(reader, start=2):
            problem = _row_problem(row, layout, schema)
            if problem:
                raise DataError(f"{path}: row {rownum}: {problem}")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    s = np.array([int(row[si].strip()) for row in rows])
    x = [[float(row[j]) for j in layout.x] for row in rows]
    return Dataset.from_arrays(
        np.array([int(row[zi].strip()) for row in rows]),
        np.array(x, dtype=float).reshape(len(rows), len(layout.x)),
        np.array([int(row[ai].strip()) for row in rows]),
        s,
        np.array([float(row[yi]) if alive else np.nan for row, alive in zip(rows, s)]),
        covariate_names=layout.x_names,
    )


def assert_loads_like_reference(path, schema=None):
    """``load_dataset`` gives the reference's dataset, or its error message."""
    try:
        expected = reference_load(path, schema)
    except DataError as exc:
        with pytest.raises(DataError) as err:
            load_dataset(path, schema)
        assert str(err.value) == str(exc)
        return None
    data = load_dataset(path, schema)
    assert data == expected
    y, y_ref = (d.outcomes_at(d.survivor_mask()) for d in (data, expected))
    assert np.array_equal(np.signbit(data.x), np.signbit(expected.x))
    assert np.array_equal(np.signbit(y), np.signbit(y_ref))
    return data


def write_late_row(path, row, prefix_rows=PREFIX_ROWS):
    """``prefix_rows`` narrow valid rows, then ``row``, then one more valid row."""
    lines = ["z,s,y,a,x1"] + ["1,1,0.5,0,1.5"] * prefix_rows + [row, "0,0,,1,2.5"]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "wide_row",
    [
        f"1,1,0.5,{2**63 - 1},1.5",
        "1,1,   -0.125   ,0,1.5",
        '" 1",1,0.5,0,1.5',
        '1,"    1  ",0.5,0,1.5',
        '"  1  ","0 ",,"  7  ",1.5',
    ],
)
def test_load_reads_the_widest_field_after_the_first_chunk(tmp_path, wide_row):
    # Every earlier field of the widened column is narrower, so a width taken
    # from the first rows would cut this one short.
    p = tmp_path / "wide.csv"
    write_late_row(p, wide_row)
    data = assert_loads_like_reference(p)
    assert len(data) == PREFIX_ROWS + 2


def test_load_rejects_a_code_of_2_63_past_the_first_chunk(tmp_path):
    p = tmp_path / "overflow.csv"
    write_late_row(p, f"1,1,0.5,{2**63},1.5", prefix_rows=50_003)
    with pytest.raises(DataError) as err:
        load_dataset(p)
    assert f"row 50005: a must be below 2**63, got {2**63}" in str(err.value)
    assert_loads_like_reference(p)


def test_load_without_survivors(tmp_path):
    p = tmp_path / "dead.csv"
    p.write_text("z,s,y,a,x1\n1,0,,0,0.5\n0,0,,2,1.5\n")
    data = assert_loads_like_reference(p)
    assert data.survivor_mask().sum() == 0
    assert data.outcomes_at(data.survivor_mask()).shape == (0,)


def test_load_text_fields_that_quote_delimiters(tmp_path):
    # Quoted delimiters and line breaks move every later field of the record.
    good = tmp_path / "good.csv"
    good.write_text(
        'z,s,name,y,a,x1\n'
        '"1","1","Doe, J\nJr.",0.5,"3",1.5\n'
        '0,0,",,,",,"12",2.5\n'
    )
    data = assert_loads_like_reference(good, Schema(covariates=("x1",)))
    assert data.a.tolist() == [3, 12]
    for bad_y in ('"1,5"', '"1\n5"'):
        bad = tmp_path / "bad.csv"
        bad.write_text(f'z,s,y,a,x1\n1,1,0.5,0,1.5\n1,1,{bad_y},0,1.5\n')
        assert_loads_like_reference(bad)
    bad = tmp_path / "bad_a.csv"
    bad.write_text('z,s,y,a,x1\n1,1,0.5,"1,2",1.5\n')
    assert_loads_like_reference(bad)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_skips_a_header_with_a_quoted_line_break(tmp_path, newline):
    # The header is one record over two physical lines.
    p = tmp_path / "header.csv"
    rows = ['z,s,y,a,"x' + newline + '1"', "1,1,0.5,0,1.5", "0,0,,1,2.5"]
    p.write_bytes((newline.join(rows) + newline).encode())
    data = assert_loads_like_reference(p)
    assert data.covariate_names == ("x" + newline + "1",)
    assert data.x[:, 0].tolist() == [1.5, 2.5]


@pytest.mark.parametrize(
    "name, lines",
    [("x1", 1), ('"x\n1"', 2), ('"x\r\n1"', 2), ('"x\r1"', 2), ('"x\r\r\n1"', 3), ('"x\n\n1"', 3)],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_header_lines_count_the_physical_lines_np_loadtxt_skips(tmp_path, name, lines, newline):
    p = tmp_path / "lines.csv"
    rows = ["z,s,y,a," + name, "1,1,0.5,0,1.5", "0,0,,1,2.5"]
    p.write_bytes((newline.join(rows) + newline).encode())
    assert _read_layout(p, Schema()).header_lines == lines
    data = assert_loads_like_reference(p)
    assert data.x[:, 0].tolist() == [1.5, 2.5]


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308])
values = st.one_of(finite, edge_floats)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 3))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    a = draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n))
    x = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n))
    y = [draw(values) if si else np.nan for si in s]
    return Dataset.from_arrays(
        np.array(z), np.array(x, dtype=float).reshape(n, d), np.array(a), np.array(s),
        np.array(y, dtype=float),
    )


@settings(max_examples=150, deadline=None)
@given(data=datasets())
def test_save_load_roundtrip_property(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("roundtrip")
    first, second = folder / "a.csv", folder / "b.csv"
    save_dataset(data, first)
    back = load_dataset(first)
    assert back == data
    assert np.array_equal(np.signbit(back.x), np.signbit(data.x))
    save_dataset(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_save_load_roundtrip_across_blocks(tmp_path):
    rng = rng_stream(5)
    n = 20_000
    s = rng.integers(0, 2, size=n)
    data = Dataset.from_arrays(
        rng.integers(0, 2, size=n),
        rng.normal(size=(n, 2)),
        rng.integers(0, 4, size=n),
        s,
        np.where(s == 1, rng.normal(size=n), np.nan),
    )
    p = tmp_path / "big.csv"
    save_dataset(data, p)
    lines = p.read_bytes().split(b"\r\n")
    assert lines[0] == b"z,s,y,a,x1,x2" and lines[-1] == b""
    for i in (0, 8191, 8192, n - 1):
        assert lines[i + 1] == ",".join(row_fields(data, i)).encode()
    assert load_dataset(p) == data


def test_validate_clean_dataset():
    rng = rng_stream(21)
    n = 200
    z = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, 2))
    a = rng.integers(0, 2, size=n)
    s = rng.integers(0, 2, size=n)
    y = np.where(s == 1, rng.normal(size=n), np.nan)
    report = validate(Dataset.from_arrays(z, x, a, s, y))
    assert report.ok
    assert report.n == n
    assert report.arm_counts[0] + report.arm_counts[1] == n
    assert set(report.to_dict()) >= {"n", "arm_counts", "flags", "ok"}


def test_validate_flags_structural_problems():
    # every unit treated, constant covariate, single substitution level
    z = np.ones(8, dtype=int)
    x = np.column_stack([np.full(8, 3.0), np.arange(8.0)])
    a = np.zeros(8, dtype=int)
    s = np.ones(8, dtype=int)
    y = np.arange(8.0)
    report = validate(Dataset.from_arrays(z, x, a, s, y))
    assert not report.ok
    assert "arm 0 is empty" in report.flags
    assert any("single level among arm 1 survivors" in f for f in report.flags)
    assert any(f.startswith("covariate x1 is constant") for f in report.flags)


def test_validate_flags_arm_without_survivors():
    z = np.array([1, 1, 0, 0])
    s = np.array([1, 1, 0, 0])
    y = np.array([1.0, 2.0, np.nan, np.nan])
    report = validate(
        Dataset.from_arrays(z, np.zeros((4, 1)), [0, 1, 0, 1], s, y)
    )
    assert "arm 0 has no survivors" in report.flags


@st.composite
def rendered_csv(draw):
    """A small dataset as CSV bytes, with random padding, quoting and line ends."""
    data = draw(datasets())
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def render(text):
        pad = st.text(alphabet=" \t", max_size=2)
        text = draw(pad) + text + draw(pad)
        return f'"{text}"' if draw(st.booleans()) else text

    lines = [",".join(["z", "s", "y", "a"] + list(data.covariate_names))]
    for i in range(len(data)):
        lines.append(",".join(map(render, row_fields(data, i))))
    body = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return data, body.encode()


@settings(max_examples=150, deadline=None)
@given(case=rendered_csv())
def test_load_matches_the_reference_on_rendered_files(tmp_path_factory, case):
    data, body = case
    path = tmp_path_factory.mktemp("dialect") / "d.csv"
    path.write_bytes(body)
    assert assert_loads_like_reference(path) == data


def whole_buffer_scan(path):
    """The record scan as one pass over the whole file, every mask full length."""
    buf = np.fromfile(path, dtype=np.uint8)
    quotes = np.flatnonzero(buf == ord('"'))

    def unquoted(pos):
        return pos[np.searchsorted(quotes, pos) % 2 == 0]

    lf = np.flatnonzero(buf == ord("\n"))
    cr = np.flatnonzero(buf == ord("\r"))
    crlf = buf[np.minimum(cr + 1, buf.size - 1)] == ord("\n")
    ends = unquoted(np.sort(np.concatenate((lf, cr[~crlf]))))
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


_SCAN_FILES = {
    "quoted delimiters and line breaks": (
        b'z,s,"y",a,"x,1"\r\n"1","1","2,5",0,"1\r\n5"\r\n0,0,,"3",",\n,"\r\n'
    ),
    "crlf at every offset": b"z,s,y,a,x1\r\n1,1,0.5,0,1.5\r\n0,0,,1,2.5\r\n10,1,,22,3\r\n",
    "lone cr": b"z,s,y,a,x1\r1,1,0.5,0,1.5\r0,0,,1,2.5\r",
    "lone cr before lf": b"z,s,y,a,x1\r\r\n1,1,0.5,0,1.5\n\r0,0,,1,2.5",
    "blank lines": b"z,s,y,a,x1\n\n1,1,0.5,0,1.5\n\n\n0,0,,1,2.5\n",
    "no terminator": b"z,s,y,a,x1\n1,1,0.5,0,1.5\n0,0,,1,2.5",
    "ends in cr": b'z,s,y,a,x1\n1,1,0.5,0,"1.5"\r',
    "no quotes, many fields": b"z,s,y,a,x1,x2\n" + b"1,1,-0.5,0,1.5,,\n" * 5 + b"0,0,,1,2,3\n",
    "open quote": b'z,s,y,a,x1\n1,1,0.5,0,"1.5\n0,0,,1,2.5\n',
    "header only": b"z,s,y,a,x1\r\n",
}


def _load_outcome(path):
    try:
        return load_dataset(path)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(_SCAN_FILES))
@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 1 << 20])
def test_block_scan_matches_the_whole_buffer_scan(tmp_path, monkeypatch, name, block):
    # Block edges fall inside quoted fields, between "\r" and "\n", and on
    # every delimiter; the offsets, and what load_dataset makes of them, must
    # not depend on where they fall.
    path = tmp_path / "scan.csv"
    path.write_bytes(_SCAN_FILES[name])
    expected = _load_outcome(path)
    want = whole_buffer_scan(path)
    monkeypatch.setattr(data_module, "_SCAN_BLOCK", block)
    got = _scan_records(path)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    for offsets in got[1:]:
        assert offsets.dtype == np.int32
    monkeypatch.setattr(data_module, "_scan_records", whole_buffer_scan)
    reference = _load_outcome(path)
    monkeypatch.undo()
    monkeypatch.setattr(data_module, "_SCAN_BLOCK", block)
    assert _load_outcome(path) == reference == expected


def test_block_scan_matches_on_a_generated_file(tmp_path, monkeypatch):
    data, _ = gen_dataset(SimulationSetting(n=300, delta1=1, delta2=1, seed=17))
    path = tmp_path / "gen.csv"
    save_dataset(data, path)
    want = whole_buffer_scan(path)
    for block in (7, 64, 4099):
        monkeypatch.setattr(data_module, "_SCAN_BLOCK", block)
        for a, b in zip(_scan_records(path), want):
            assert np.array_equal(a, b)
        assert load_dataset(path) == data


def test_position_dtype_is_int32_below_2_gib():
    # offsets run from 0 to the file size itself, which int32 must hold
    assert _position_dtype(0) is np.int32
    assert _position_dtype(2**31 - 1) is np.int32
    assert np.iinfo(np.int32).max == 2**31 - 1
    assert _position_dtype(2**31) is np.int64
    assert _position_dtype(5 * 2**31) is np.int64


# load_dataset's tracemalloc peak over the file size at n=50000: the record
# scan holds the file's bytes and int32 offsets, and the parse starts after
# they are freed (1.65 measured; a scan with full-length masks peaks at 3.84)
LOAD_PEAK_PER_FILE_BYTE = 2.0


def test_load_peak_memory_is_bounded_by_the_file_size(tmp_path):
    data, _ = gen_dataset(SimulationSetting(n=50_000, seed=29))
    path = tmp_path / "big.csv"
    save_dataset(data, path)
    del data
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(loaded) == 50_000
    assert peak < LOAD_PEAK_PER_FILE_BYTE * path.stat().st_size
