"""Tests for the dataset container, CSV round trip and structural checks."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sacekit.data import (
    Dataset,
    Schema,
    StratumLabel,
    _read_layout,
    _row_problem,
    load_dataset,
    save_dataset,
    validate,
)
from sacekit.errors import DataError
from sacekit.numerics import rng_stream


def small_dataset():
    z = np.array([1, 1, 0, 0, 1, 0])
    x = np.array([[0.5, 1.0], [-0.5, 2.0], [0.0, 0.5], [1.5, -1.0], [2.0, 0.0], [-1.0, 1.0]])
    a = np.array([0, 1, 0, 1, 1, 0])
    s = np.array([1, 1, 1, 0, 0, 1])
    y = np.array([2.5, -0.25, 1.0, np.nan, np.nan, 0.125])
    return Dataset.from_arrays(z, x, a, s, y, covariate_names=("age", "bmi"))


def test_stratum_label_roundtrip():
    assert StratumLabel.from_potential(1, 1) is StratumLabel.ALWAYS
    assert StratumLabel.from_potential(1, 0) is StratumLabel.PROTECTED
    assert StratumLabel.from_potential(0, 1) is StratumLabel.HARMED
    assert StratumLabel.from_potential(0, 0) is StratumLabel.NEVER
    assert StratumLabel.ALWAYS.survives_treated
    assert StratumLabel.ALWAYS.survives_control
    assert StratumLabel.PROTECTED.survives_treated
    assert not StratumLabel.PROTECTED.survives_control
    with pytest.raises(ValueError):
        StratumLabel.from_potential(2, 0)


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


def test_outcomes_at_rejects_truncated_units():
    data = small_dataset()
    mask = np.zeros(len(data), dtype=bool)
    mask[3] = True  # truncated unit
    with pytest.raises(DataError, match="truncated unit"):
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


def test_load_with_custom_schema(tmp_path):
    p = tmp_path / "renamed.csv"
    p.write_text("treat,alive,outcome,marker,age\n1,1,3.5,0,44\n0,0,,1,51\n")
    schema = Schema(z="treat", s="alive", y="outcome", a="marker")
    data = load_dataset(p, schema=schema)
    assert len(data) == 2
    assert data.covariate_names == ("age",)
    assert_allclose(data.outcomes_at(data.survivor_mask()), [3.5])


def test_load_errors_carry_row_numbers(tmp_path):
    def attempt(body):
        p = tmp_path / "bad.csv"
        p.write_text(body)
        with pytest.raises(DataError) as err:
            load_dataset(p)
        return str(err.value)

    assert "empty file" in attempt("")
    assert "missing column 'y'" in attempt("z,s,a\n1,1,0\n")
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
