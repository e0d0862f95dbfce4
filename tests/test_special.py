import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from aicg.special import erf, erfc, norm_cdf, norm_cdf2, owens_t

from oracles import erf_decimal, erfc_decimal, norm_cdf2_owen


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


# Owen's T on both sides of |a| = 1, at a = +-inf, and far out in h
OWEN_H = [0.0, 1e-9, 0.3, 1.0, 2.5, 5.0, 8.0, 12.0, 40.0, 1e10]
OWEN_A = [0.0, 1e-12, 0.2, 0.999, 1.0, 1.001, 3.0, 50.0, 1e8, np.inf]


@pytest.mark.parametrize("h", OWEN_H)
def test_owens_t_matches_scipy(h):
    from scipy.special import owens_t as scipy_t
    a = np.array(OWEN_A + [-x for x in OWEN_A])
    for sign in (1.0, -1.0):
        got = owens_t(sign * h, a)
        assert np.max(np.abs(got - scipy_t(sign * h, a))) <= 1e-16
    assert owens_t(h, 1.0) == pytest.approx(0.5 * norm_cdf(h) * norm_cdf(-h), abs=1e-16)


def test_owens_t_random_arguments():
    from scipy.special import owens_t as scipy_t
    rng = np.random.default_rng(11)
    h = rng.uniform(-9.0, 9.0, 5000)
    a = rng.uniform(-3.0, 3.0, 5000) * rng.choice([0.1, 1.0, 30.0], 5000)
    assert np.max(np.abs(owens_t(h, a) - scipy_t(h, a))) <= 1e-16


PHI2_CASES = [(h, k, rho) for h in (-2.3, -0.4, 0.0, 0.7, 3.1) for k in (-1.5, 0.0, 0.2, 2.6)
              for rho in (-0.97, -0.5, 0.0, 0.35, 0.9, 0.999)]


@pytest.mark.parametrize("h, k, rho", PHI2_CASES)
def test_norm_cdf2_matches_owens_formula(h, k, rho):
    # hk < 0, h = 0, k = 0 and h = k = 0 all occur
    assert abs(norm_cdf2(h, k, rho) - norm_cdf2_owen(h, k, rho)) <= 1e-14
    assert norm_cdf2(h, k, rho) == norm_cdf2(k, h, rho)


def test_norm_cdf2_vectorized_and_limits():
    rng = np.random.default_rng(5)
    h, k = rng.normal(0.0, 2.0, (2, 400))
    rho = rng.uniform(-1.0, 1.0, 400)
    got = norm_cdf2(h, k, rho)
    want = [norm_cdf2_owen(*args) for args in zip(h, k, rho)]
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.array_equal(_bits(got), _bits([norm_cdf2(*args) for args in zip(h, k, rho)]))
    # rho = +-1: Phi(min(h, k)) and max(0, Phi(h) + Phi(k) - 1)
    assert norm_cdf2(0.4, -0.3, 1.0) == pytest.approx(norm_cdf(-0.3), abs=1e-16)
    assert norm_cdf2(0.4, 0.3, -1.0) == pytest.approx(norm_cdf(0.4) + norm_cdf(0.3) - 1.0,
                                                      abs=1e-16)
    assert norm_cdf2(0.4, -0.7, -1.0) == 0.0
    assert norm_cdf2(-1e300, 1e300, 0.3) == 0.0 and norm_cdf2(1e300, 1e300, -0.3) == 1.0
