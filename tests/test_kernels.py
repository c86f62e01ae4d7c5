"""The float kernels of the lattice scan."""

import numpy as np
import pytest

from lcplab import kernels

# absolute tolerance of the spectral scan against the per-point reference,
# on grids where every characteristic-polynomial coefficient stays below 1e3
SCAN_ATOL = 1e-9


def _reference_coeffs(c, ts):
    """Per-point reference: expm and charpoly at every grid point."""
    return np.array([kernels.charpoly_coeffs(kernels.expm(t * c)) for t in ts])


@pytest.mark.parametrize(
    "c,t_max",
    [
        (np.diag([1.0, -1.0]), 6.0),
        # 2x2 Jordan block (non-diagonalisable) plus -2
        (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]]), 3.0),
        # rotation block: eigenvalues 1/2 +- 3i and -1
        (np.array([[0.5, -3.0, 0.0], [3.0, 0.5, 0.0], [0.0, 0.0, -1.0]]), 6.0),
    ],
)
def test_scan_defects_matches_pointwise_reference(c, t_max):
    ts = np.arange(2e-3, t_max, 2e-3)
    coeffs = _reference_coeffs(c, ts)
    assert np.abs(coeffs).max() < 1e3
    ref = np.array([kernels.integer_defect(row) for row in coeffs])
    got = kernels.scan_defects(c, ts)
    assert got.shape == ts.shape
    assert np.abs(got - ref).max() <= SCAN_ATOL
    # one t at a time, as refinement and blockwise certification ask
    k = len(ts) // 2
    one = kernels.exp_charpoly(kernels.spectrum(c), ts[k])
    assert one.shape == coeffs[k].shape
    assert np.abs(one - coeffs[k]).max() <= SCAN_ATOL


def test_expm_against_series():
    a = np.array([[0.0, 0.3], [-0.2, 0.0]])
    e = np.eye(2)
    term = np.eye(2)
    for k in range(1, 30):
        term = term @ a / k
        e = e + term
    assert np.allclose(kernels.expm(a), e, atol=1e-14)


def test_charpoly_matches_numpy_poly():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.standard_normal((4, 4))
        assert np.allclose(
            kernels.charpoly_coeffs(m), np.poly(m), rtol=1e-9, atol=1e-10
        )


def test_integer_defect():
    assert kernels.integer_defect(np.array([1.0, -3.0, 1.0])) == 0.0
    assert np.isclose(kernels.integer_defect(np.array([1.0, -2.9, 1.2])), 0.2)
