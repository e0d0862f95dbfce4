import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from aicg.special import erf, erfc, norm_cdf

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
        assert erfc(x) == pytest.approx(float(mpmath.erfc(x)), rel=1e-12, abs=0)
        if x <= 3.5:  # where the 60-digit Maclaurin sum has digits to spare
            assert erfc(x) == pytest.approx(erfc_decimal(x), rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        erfc_decimal(10.0)


def test_norm_cdf_basics():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("fn, values", [
    (erf, st.floats(-30.0, 30.0)),
    (erfc, st.floats(-30.0, 30.0)),
], ids=["erf", "erfc"])
@given(data=st.data())
def test_elementwise_bits_do_not_depend_on_the_array(fn, values, data):
    # each element gets the same bits alone, inside an array and inside the
    # reversed array: no element's result may depend on its neighbours
    xs = np.array(data.draw(st.lists(values, min_size=1, max_size=140)))
    alone = np.array([fn(float(x)) for x in xs])
    assert np.array_equal(_bits(fn(xs)), _bits(alone))
    assert np.array_equal(_bits(fn(xs[::-1])[::-1]), _bits(alone))


def test_erf_erfc_match_mpmath_on_wide_range():
    xs = np.concatenate([np.linspace(-26.0, 26.0, 2081),
                         np.linspace(0.45, 0.49, 81), np.linspace(3.98, 4.02, 81)])
    xs = xs[xs != 0.0]
    erf_ref = np.array([float(mpmath.erf(float(x))) for x in xs])
    erfc_ref = np.array([float(mpmath.erfc(float(x))) for x in xs])
    assert np.max(np.abs(erf(xs) - erf_ref) / np.abs(erf_ref)) <= 1e-15
    assert np.max(np.abs(erfc(xs) - erfc_ref) / erfc_ref) <= 1e-15


def test_erfc_far_tail_and_limits():
    assert erfc(30.0) == 0.0 and erfc(np.inf) == 0.0
    assert erfc(-np.inf) == 2.0 and erf(np.inf) == 1.0 and erf(-np.inf) == -1.0
    assert np.isnan(erf(np.nan)) and np.isnan(erfc(np.nan))
