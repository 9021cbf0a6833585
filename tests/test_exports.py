import tracemalloc

import numpy as np
import pytest

from assettree import exports
from assettree.correlation import pearson_matrix
from assettree.errors import InvariantError
from assettree.exports import write_correlation_matrix


def _row_template_dump(tickers, rho):
    """corr.csv as one %.17g row template per row formats it: every value, both triangles."""
    row_format = ",".join(["%.17g"] * len(tickers)) + "\n"
    return (",".join(tickers) + "\n" + "".join(row_format % tuple(row) for row in rho.tolist())).encode()


def test_correlation_dump_matches_the_row_template_writer(tmp_path, rng):
    n = 300
    rows = exports._ROW_BLOCK_CELLS // n
    assert n > 2 * rows and n % rows  # several row blocks, the last one short
    tickers = ["T%03d" % k for k in range(n)]
    returns = rng.standard_normal((n, 80)) + rng.standard_normal(80)
    returns[7] = returns[3]
    returns[n - 2] = -returns[150]
    centered = returns[10] - returns[10].mean()
    returns[n - 1] -= centered * (centered @ returns[n - 1]) / (centered @ centered)
    rho = pearson_matrix(tickers, returns)
    # printf cells off the diagonal: +1 and -1 mid-row, |rho| < 1e-4 at the end of row 10.
    assert rho[3, 7] == 1.0 and rho[150, n - 2] == -1.0 and abs(rho[10, n - 1]) < 1e-4
    write_correlation_matrix(tmp_path / "corr.csv", tickers, rho)
    assert (tmp_path / "corr.csv").read_bytes() == _row_template_dump(tickers, rho)


def test_correlation_dump_rejects_an_asymmetric_matrix(tmp_path, rng):
    tickers = ["T%02d" % k for k in range(6)]
    rho = pearson_matrix(tickers, rng.standard_normal((6, 20)))
    rho[4, 1] = np.nextafter(rho[4, 1], 2.0)
    with pytest.raises(InvariantError, match="not exactly symmetric"):
        write_correlation_matrix(tmp_path / "corr.csv", tickers, rho)
    assert not (tmp_path / "corr.csv").exists()


@pytest.mark.parametrize(
    "tickers, rho, message",
    [
        (["A"], np.eye(2), r"shape \(2, 2\) for 1 tickers"),
        (["A", "B", "C"], np.eye(2), r"shape \(2, 2\) for 3 tickers"),
        (["A", "B"], np.ones(2), r"shape \(2,\) for 2 tickers"),
    ],
    ids=["fewer-tickers", "more-tickers", "one-dimensional"],
)
def test_correlation_dump_rejects_a_shape_other_than_its_tickers(tmp_path, tickers, rho, message):
    with pytest.raises(InvariantError, match=message):
        write_correlation_matrix(tmp_path / "corr.csv", tickers, rho)
    assert not (tmp_path / "corr.csv").exists()


def _exact_ties() -> np.ndarray:
    """Every m * 2**-(17 - e), m odd, in [10**e, 10**(e + 1)) for e = -1..-4: exact halves at 17 digits, both signs."""
    ties = []
    for e in range(-1, -5, -1):
        scale = 2.0 ** (17 - e)
        m = np.arange(int(np.ceil(10.0**e * scale)) | 1, np.ceil(10.0 ** (e + 1) * scale), 2)
        ties.append(m / scale)
    ties = np.concatenate(ties)
    return np.concatenate([ties, -ties])


def _printf_mismatches(values: np.ndarray) -> list:
    got = []
    for block in np.array_split(values, -(-len(values) // 65536)):
        cells = exports._cells(block)
        cells[:, 0] = ord(",")
        got += cells[cells != 0].tobytes().decode().split(",")[1:]
    return [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]


def test_digit_core_formats_as_printf():
    rng = np.random.default_rng(17)
    ties = _exact_ties()
    assert len(ties) == 294_442
    powers = np.array([1e-4, 1e-3, 0.01, 0.1])
    specials = np.array([1.0, -1.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -2.5e-320])
    values = np.concatenate(
        [
            rng.uniform(-1.0, 1.0, 100_000),
            np.exp(rng.uniform(np.log(1e-6), 0.0, 100_000)) * rng.choice([-1.0, 1.0], 100_000),
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, 1.0),
            -powers,
            specials,
            ties,
        ]
    )
    band = exports._bands(np.abs(values))
    assert ((band >= 1) & (band <= 4)).sum() > 400_000  # the digit core formats most of them
    assert _printf_mismatches(values) == []


def test_digit_core_formats_every_off_diagonal_cell_of_a_seeded_matrix(rng):
    n = 120
    tickers = ["T%03d" % k for k in range(n)]
    rho = pearson_matrix(tickers, rng.standard_normal((n, 250)) + rng.standard_normal(250))
    core = exports._bands(np.abs(rho))
    assert np.array_equal((core >= 1) & (core <= 4), ~np.eye(n, dtype=bool))  # only the diagonal is printf's


def test_correlation_dump_holds_one_row_block_at_a_time(tmp_path, rng):
    n = 600
    tickers = ["T%03d" % k for k in range(n)]
    rho = pearson_matrix(tickers, rng.standard_normal((n, 100)) + rng.standard_normal(100))
    tracemalloc.start()
    try:
        write_correlation_matrix(tmp_path / "corr.csv", tickers, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A writer that kept each formatted cell for the row below the diagonal peaked near the file's size.
    assert peak < (tmp_path / "corr.csv").stat().st_size / 4
