import numpy as np
import pytest

from assettree.correlation import pearson_matrix
from assettree.errors import InvariantError
from assettree.exports import write_correlation_matrix


def _row_template_dump(tickers, rho):
    """corr.csv as one %.17g row template per row formats it: every value, both triangles."""
    row_format = ",".join(["%.17g"] * len(tickers)) + "\n"
    return (",".join(tickers) + "\n" + "".join(row_format % tuple(row) for row in rho.tolist())).encode()


def test_correlation_dump_matches_the_row_template_writer(tmp_path, rng):
    tickers = ["T%02d" % k for k in range(50)]
    rho = pearson_matrix(tickers, rng.standard_normal((50, 80)) + rng.standard_normal(80))
    write_correlation_matrix(tmp_path / "corr.csv", tickers, rho)
    assert (tmp_path / "corr.csv").read_bytes() == _row_template_dump(tickers, rho)


def test_correlation_dump_rejects_an_asymmetric_matrix(tmp_path, rng):
    tickers = ["T%02d" % k for k in range(6)]
    rho = pearson_matrix(tickers, rng.standard_normal((6, 20)))
    rho[4, 1] = np.nextafter(rho[4, 1], 2.0)
    with pytest.raises(InvariantError, match="not exactly symmetric"):
        write_correlation_matrix(tmp_path / "corr.csv", tickers, rho)
    assert not (tmp_path / "corr.csv").exists()
