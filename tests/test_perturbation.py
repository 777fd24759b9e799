import math

import numpy as np
import pytest
from scipy.special import gammaln

from bosefold.perturbation import (closed_form_series, coupling_with_center_gaussian,
                                   exact_transfer, first_order_numeric,
                                   transfer_report)


def test_coupling_matrix_structure():
    n, eps, beta = 7, 0.3, 1.5
    r = coupling_with_center_gaussian(n, eps, beta)
    assert np.max(np.abs(r - r.conj().T)) == 0.0
    m = (n - 1) / 2.0 - np.arange(n)
    assert np.allclose(np.diag(r).real, eps * np.exp(-beta * m**2))


def test_unperturbed_transfer_is_perfect():
    for n in (2, 9, 21):
        row = exact_transfer(n, 0.0, 0.0)
        assert abs(abs(row[-1]) - 1.0) < 1e-10


def test_first_order_matches_finite_difference():
    n, beta, eps = 9, 2.0, 1e-5
    numeric = first_order_numeric(n, beta)
    fd = (exact_transfer(n, eps, beta) - exact_transfer(n, 0.0, beta)) / eps
    assert np.linalg.norm(numeric - fd) / np.linalg.norm(fd) < 1e-3


def test_first_order_beta_zero_endpoint():
    # with no spatial structure the correction is a pure -i*pi phase response
    numeric = first_order_numeric(9, 0.0)
    assert abs(abs(numeric[-1]) - math.pi) < 1e-8


def test_closed_form_end_term():
    for n in (5, 11):
        series = closed_form_series(n, 0.7)
        assert series[n - 1] == pytest.approx(-1j * math.pi)


def test_closed_form_beta_zero_only_end_survives():
    series = closed_form_series(7, 0.0)
    assert np.all(series[:-1] == 0)
    assert series[-1] == pytest.approx(-1j * math.pi)


def test_closed_form_matches_gammaln():
    # math.lgamma on the half-integer arguments in place of scipy.special.gammaln;
    # measured 1.1e-14
    for n in (5, 8, 21):
        k = np.arange(n, dtype=float)
        half = (n - 1 - k) / 2.0
        log_mag = (0.5 * (gammaln(n) - gammaln(k + 1) - gammaln(n - k))
                   + 2.0 * gammaln(half + 0.5) - gammaln(half + 1.0))
        for beta in (0.0, 0.7):
            ref = -1j * np.exp(log_mag) * (beta**half if beta else half == 0.0)
            series = closed_form_series(n, beta)
            assert np.all((series == 0) == (ref == 0))
            nz = ref != 0
            assert np.max(np.abs(series[nz] / ref[nz] - 1.0)) < 1e-12


def test_transfer_report_fields():
    rep = transfer_report(5, 1e-3, 0.5)
    assert rep.n_sites == 5
    assert rep.j == 2.0
    assert rep.exact_row.shape == (5,)
    assert rep.first_order_numeric.shape == (5,)
    assert rep.closed_form.shape == (5,)
