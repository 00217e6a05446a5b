"""The CSV writer against the %-based oracle of csv_oracle, byte for byte, and its
block formatter against "%.12g" % x on the values where a fast path could round
wrongly: ties, near-ties, powers of ten and carries, and every kind of float64."""

import json
import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import csv_oracle
from tvkuramoto import cli
from tvkuramoto.cli import _csv_bytes, _write_csv, bundled_config_path, main

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
           -2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308, 1e-11, 1e17,
           1e12, 1e-5, 1e-4, 100.0, 1.000244140625, 123456789012.5, 999999999999.5,
           9.999999999995e3, 0.1, 1.0 / 3.0]


def assert_formats_like_percent(values, cols=1):
    """_csv_bytes of the values, cols to a row, is the %.12g text of each."""
    values = np.asarray(values, dtype=float)
    rows = values.reshape(-1, cols)
    expected = "".join(",".join("%.12g" % x for x in row) + "\n" for row in rows.tolist())
    assert _csv_bytes(rows).decode() == expected


def as_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(0, 2**64 - 1).map(as_float), st.sampled_from(SPECIAL),
                          st.floats(allow_nan=True, allow_infinity=True)),
                min_size=1, max_size=60), st.integers(1, 3))
def test_any_float64_formats_like_percent(values, cols):
    # every bit pattern: subnormals, +-0, NaN and +-inf, and the normal range far
    # outside the fast path's [1e-11, 1e17)
    values += [0.0] * (-len(values) % cols)
    assert_formats_like_percent(values, cols)


@pytest.mark.parametrize("k", range(-20, 21))
def test_powers_of_ten_and_their_neighbours_format_like_percent(k):
    # log10 of a value next to a power of ten may land on the wrong side of it
    p = 10.0 ** k
    near = [np.nextafter(p, math.inf), np.nextafter(p, -math.inf), p]
    near += [np.nextafter(near[0], math.inf), np.nextafter(near[1], -math.inf)]
    assert_formats_like_percent(near + [-x for x in near])


@pytest.mark.parametrize("k", range(-20, 21))
def test_carries_into_the_next_power_of_ten_format_like_percent(k):
    # 9.999999999995 10^k rounds to 12 digits either side of 10^(k+1)
    x = 9.999999999995 * 10.0 ** k
    ulps = [x]
    for _ in range(3):
        ulps = [np.nextafter(ulps[0], -math.inf)] + ulps + [np.nextafter(ulps[-1], math.inf)]
    assert_formats_like_percent(ulps + [-x for x in ulps])


@settings(max_examples=300)
@given(st.integers(10**11, 10**12 - 1), st.integers(-13, 18), st.integers(0, 3))
def test_values_at_and_next_to_a_rounding_tie_format_like_percent(n, e, ulps):
    # (n + 1/2) 10^(e - 11) is halfway between two 12-digit values of exponent e
    tie = float((Fraction(2 * n + 1, 2) * Fraction(10) ** (e - 11)))
    near = [tie]
    for _ in range(ulps):
        near = [np.nextafter(near[0], -math.inf)] + near + [np.nextafter(near[-1], math.inf)]
    assert_formats_like_percent(near + [-x for x in near])


@settings(max_examples=300)
@given(st.integers(1, 17), st.integers(0, 2**60), st.integers(12, 16), st.booleans())
def test_exact_ties_round_half_to_even_like_percent(k, draw, e, below_1e12):
    # exact float values of 13 significant digits, the last a 5: an odd o times 2^-k,
    # o 5^k / 10^k, below 1e12, or (2n + 1) 5 10^(e - 12), from 1e12 up to 1e17
    if below_1e12:
        low, high = -(-10**12 // 5**k), 10**13 // 5**k
        exact = Fraction((low + draw % (high - low)) | 1, 2**k)
    else:
        exact = Fraction((2 * (10**11 + draw % (9 * 10**11)) + 1) * 5 * 10 ** (e - 12))
    x = float(exact)
    digits = Decimal(x).normalize().as_tuple().digits
    assume(len(digits) == 13)  # an odd o at the top of its range may reach 14 digits
    assert Fraction(x) == exact and digits[-1] == 5
    assert_formats_like_percent([x, -x])


def test_exact_tie_rounds_half_to_even():
    assert _csv_bytes(np.array([[1.000244140625, 1.000732421875]])) \
        == b"1.00024414062,1.00073242188\n"


# ----------------------------------------------------------------------------
# _write_csv against the oracle


def random_rows(rng, nrows, cols):
    """Random walks over many decades, with the special values at random places."""
    rows = np.cumsum(rng.standard_normal((nrows, cols)), axis=0)
    rows *= 10.0 ** rng.integers(-14, 18, cols)
    flat = rows.reshape(-1)
    flat[rng.choice(flat.size, len(SPECIAL), replace=False)] = SPECIAL
    return rows


@pytest.mark.parametrize("form", [
    None, lambda b: np.column_stack([b[:, 0], np.diff(b, axis=1)])], ids=["plain", "form"])
@pytest.mark.parametrize("cols", [1, 2, 6, 11, 191])
def test_write_csv_matches_the_percent_oracle(tmp_path, cols, form):
    # three whole blocks and a short one: the row count is no multiple of a block
    step = max(1, cli._CSV_BLOCK_VALUES // cols)
    rows = random_rows(np.random.default_rng(cols), 3 * step + 5, cols)
    header = [f"c{i}" for i in range(cols)]
    _write_csv(tmp_path / "a.csv", header, rows, "0123abcd", "t=s x=rad", form=form)
    values = rows if form is None else form(rows)
    assert (tmp_path / "a.csv").read_bytes() == csv_oracle.csv_bytes(header, values, "0123abcd",
                                                                     "t=s x=rad")


@pytest.mark.parametrize("name, parameters", [
    ("ap", {"num_runs": 2, "t_end": 8.0, "divergence_from": 4.0}),
    ("perturb", {"t_end": 2.0}),
    ("fast", {"frequencies": [10.0, 80.0], "t_end": 2.0}),
])
def test_experiment_csvs_match_the_percent_oracle(tmp_path, monkeypatch, name, parameters):
    # every CSV of a shortened bundled experiment, against the oracle on the array
    # (form applied whole) that _write_csv was handed
    written, write = [], cli._write_csv

    def recording(path, header_cols, rows, config_hash, units, form=None):
        written.append((path, header_cols, rows if form is None else form(rows), config_hash,
                        units))
        write(path, header_cols, rows, config_hash, units, form)

    monkeypatch.setattr(cli, "_write_csv", recording)
    cfg = json.loads(bundled_config_path(name).read_text())
    cfg["parameters"].update(parameters)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["experiment", name, "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(written) == len(list((tmp_path / "out").rglob("*.csv"))) >= 5
    for path, header, values, config_hash, units in written:
        assert path.read_bytes() == csv_oracle.csv_bytes(header, values, config_hash, units), path
