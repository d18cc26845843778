"""Tests for the dataset container, CSV round trip and structural checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sacekit.data import (
    Dataset,
    Schema,
    StratumLabel,
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


def test_subset_and_iteration():
    data = small_dataset()
    sub = data.subset([0, 2, 5])
    assert len(sub) == 3
    units = list(sub)
    assert units[0].y == 2.5
    assert units[1].x == (0.0, 0.5)
    # truncated units carry y=None through the row view
    assert next(iter(data.subset([3]))).y is None


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
        u = data.unit(i)
        y = "" if u.y is None else repr(u.y)
        fields = [str(u.z), str(u.s), y, str(u.a)] + [repr(float(v)) for v in u.x]
        assert lines[i + 1] == ",".join(fields).encode()
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
