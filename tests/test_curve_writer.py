"""The declared-curves writer: every curve file equals the row-by-row
`%.17g` reference, whatever columns the curves share and however the rows
fall into blocks; a non-finite value writes no file for its curve."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitgumbel import NonFiniteResult
from exitgumbel.cli import _write_curves
from exitgumbel.stats import CSV_BLOCK_ROWS

MAX = 1.7976931348623157e308
# Signed zero, the smallest subnormal, the largest doubles and integral floats.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, MAX, -MAX, 1.0, -7.0, 2.0**53, 1e22]
# One row, a block less one, one block, a block and one, two blocks and one.
LENGTHS = [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1]
HEADER = "x,exact,limit,abs_error\r\n"
FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _reference(xs, exact, limit) -> str:
    rows = zip(xs, exact, limit, np.abs(exact - limit))
    return HEADER + "".join("%.17g,%.17g,%.17g,%.17g\r\n" % row for row in rows)


@st.composite
def _curve_sets(draw):
    """1-4 curves on one x array, each with its own exact values and with a
    limit drawn from two shared arrays. Values come from a small drawn pool
    and the special values, spread over the rows by a drawn seed. Where
    exact - limit would overflow, exact is the limit (see the next test)."""
    size = draw(st.sampled_from(LENGTHS))
    pool = np.array(SPECIAL + draw(st.lists(FINITE, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def column():
        return pool[rng.integers(pool.size, size=size)]

    def exact(limit):
        values = column()
        with np.errstate(over="ignore"):
            return np.where(np.isinf(values - limit), limit, values)

    xs, limits = column(), (column(), column())
    curves = []
    for i in range(draw(st.integers(1, 4))):
        limit = limits[draw(st.integers(0, 1))]
        curves.append((f"c{i}", xs, exact(limit), limit))
    return curves


@settings(max_examples=60, deadline=None)
@given(_curve_sets())
def test_files_equal_the_row_by_row_reference(tmp_path_factory, curves):
    out = tmp_path_factory.mktemp("curves")
    sups = _write_curves(out, "csv", curves)
    assert sups == [float(np.max(np.abs(exact - limit))) for _, _, exact, limit in curves]
    for stem, xs, exact, limit in curves:
        assert (out / f"{stem}.csv").read_bytes().decode() == _reference(xs, exact, limit)


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from(LENGTHS),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.sampled_from(["x", "exact", "limit", "abs_error"]),
    data=st.data(),
)
def test_non_finite_value_writes_no_file(tmp_path_factory, size, bad, where, data):
    out = tmp_path_factory.mktemp("curves")
    xs = np.linspace(-1.0, 5.0, size)
    limit = np.exp(-xs)
    columns = {"x": xs.copy(), "exact": limit + 1e-3, "limit": limit.copy()}
    row = data.draw(st.integers(0, size - 1))
    if where == "abs_error":  # exact and limit are finite, their distance is not
        columns["exact"][row], columns["limit"][row] = MAX, -MAX
    else:
        columns[where][row] = bad
    curves = [("good", xs, limit * 0.5, limit), ("bad", *columns.values()), ("after", xs, limit, limit)]
    with pytest.raises(NonFiniteResult), np.errstate(over="ignore"):  # as in the curve commands
        _write_curves(out, "csv", curves)
    assert (out / "good.csv").read_bytes().decode() == _reference(xs, limit * 0.5, limit)
    assert not (out / "bad.csv").exists()
    assert not (out / "after.csv").exists()
