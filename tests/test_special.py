import numpy as np
import pytest
from hypothesis import given, strategies as st

from aicg.special import erf, erfc, norm_cdf, norm_ppf

from oracles import erf_decimal, erfc_decimal


def test_erf_zero():
    assert erf(0.0) == 0.0


def test_erf_one_matches_high_precision_oracle():
    assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-15)
    assert erf(1.0) == pytest.approx(erf_decimal(1.0), abs=1e-15)


@pytest.mark.parametrize("x", [0.05, 0.4, 1.3, 2.5, 2.999, 3.001, 4.2, 5.5, 6.0])
def test_erf_relative_accuracy(x):
    ref = erf_decimal(x)
    assert abs(erf(x) - ref) / ref < 1e-12


def test_erf_beyond_six_absolute():
    for x in [6.5, 8.0, 12.0, 40.0]:
        assert abs(erf(x) - 1.0) <= 1e-15
        assert abs(erf(-x) + 1.0) <= 1e-15


@given(st.floats(min_value=0.0, max_value=10.0))
def test_erf_odd_symmetry(x):
    assert erf(-x) == -erf(x)


def test_erf_vectorized_matches_scalar():
    xs = np.linspace(-6, 6, 97)
    vec = erf(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == erf(float(x))


def test_erfc_complements_erf():
    for x in [-3.0, -0.5, 0.0, 0.7, 2.9, 3.5, 10.0]:
        assert erfc(x) == pytest.approx(erfc_decimal(x), rel=1e-12)


def test_norm_cdf_basics():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)


def test_norm_ppf_roundtrip():
    ps = np.linspace(1e-10, 1 - 1e-10, 501)
    xs = norm_ppf(ps)
    assert np.max(np.abs(norm_cdf(xs) - ps)) < 1e-13


def test_norm_ppf_rejects_boundary():
    with pytest.raises(ValueError):
        norm_ppf(0.0)
    with pytest.raises(ValueError):
        norm_ppf(1.0)

