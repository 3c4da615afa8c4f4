"""Belief arithmetic: representation round trips, updates, and the f kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmi import logodds as lo
from ssmi.errors import DegeneratePivot, InvalidClass
from ssmi.logodds import CellRelation, SensorParams

LN3 = 1.0986122886681098
LN_4_5 = 1.5040773967762742


def kl_oracle(phi, h):
    """KL(sigma(phi+h) || sigma(h)) summed term by term, no shared code with f."""
    p = lo.softmax_pmf(np.asarray(phi) + np.asarray(h))
    q = lo.softmax_pmf(np.asarray(h))
    return float(sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0))


# -- softmax / log-odds round trips -------------------------------------------


def test_softmax_uniform():
    np.testing.assert_allclose(lo.softmax_pmf(np.zeros(3)), np.full(3, 1 / 3), rtol=0, atol=1e-15)


def test_softmax_roundtrip_wall_pmf():
    p = np.array([0.1, 0.8, 0.1])
    np.testing.assert_allclose(lo.softmax_pmf(lo.logodds_from_pmf(p)), p, atol=1e-12)


def test_softmax_saturated_no_overflow():
    out = lo.softmax_pmf(np.array([0.0, 50.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[1] == pytest.approx(1.0, abs=1e-15)
    assert out[0] < 1e-20 and out[2] < 1e-20


def test_softmax_extreme_magnitudes():
    out = lo.softmax_pmf(np.array([0.0, 700.0, -700.0]))
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


def test_logodds_uniform_is_zero():
    np.testing.assert_array_equal(lo.logodds_from_pmf(np.full(3, 1 / 3)), np.zeros(3))


def test_logodds_green_wall_pmf():
    h = lo.logodds_from_pmf(np.array([0.1, 0.45, 0.45]))
    np.testing.assert_allclose(h, [0.0, LN_4_5, LN_4_5], atol=1e-12)


def test_logodds_zero_pivot_rejected():
    with pytest.raises(DegeneratePivot):
        lo.logodds_from_pmf(np.array([0.0, 0.5, 0.5]))


@given(
    st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=2, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(raw):
    p = np.array(raw)
    p = p / p.sum()
    if p[0] < 1e-9:
        return
    np.testing.assert_allclose(lo.softmax_pmf(lo.logodds_from_pmf(p)), p, atol=1e-12)


# -- sensor parameters ----------------------------------------------------------


def test_default_params_shapes(params3):
    assert params3.num_classes == 3
    for vec in (params3.phi_plus, params3.phi_minus, params3.psi_plus):
        assert vec[0] == 0.0 and vec.shape == (4,)
    assert np.all(params3.clamp_lo[1:] < params3.clamp_hi[1:])


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_default_hit_model_true_positive_rate(k):
    params = SensorParams.default(k, true_positive_rate=0.65)
    for y in range(1, k + 1):
        pmf = lo.softmax_pmf(params.hit_logodds(y))
        assert pmf[y] == pytest.approx(0.65, abs=1e-12)


def test_params_validation():
    bad = np.array([1.0, 0.5])
    good = np.array([0.0, 0.5])
    lohi = (np.array([0.0, -6.0]), np.array([0.0, 6.0]))
    with pytest.raises(ValueError):
        SensorParams(bad, good, good, *lohi)
    with pytest.raises(ValueError):
        SensorParams(good, good, good, *lohi, alpha=1.5)
    with pytest.raises(ValueError):
        SensorParams(good, good, good, lohi[1], lohi[0])


# -- inverse observation model ----------------------------------------------------


def test_inverse_observation_unobserved_returns_prior(params3):
    h0 = np.array([0.0, 0.3, -0.2, 1.0])
    out = lo.inverse_observation(CellRelation.UNOBSERVED, None, h0, params3)
    np.testing.assert_array_equal(out, h0)


def test_inverse_observation_free_is_phi_minus(params3):
    h0 = np.array([0.0, 0.3, -0.2, 1.0])
    out = lo.inverse_observation(CellRelation.FREE, None, h0, params3)
    np.testing.assert_array_equal(out, params3.phi_minus)


def test_inverse_observation_hit_boosts_single_entry(params3):
    out = lo.inverse_observation(CellRelation.OCCUPIED, 2, np.zeros(4), params3)
    expect = params3.phi_plus.copy()
    expect[2] += params3.psi_plus[2]
    np.testing.assert_array_equal(out, expect)
    assert out[1] == params3.phi_plus[1] and out[3] == params3.phi_plus[3]


def test_inverse_observation_free_class_hit_rejected(params3):
    with pytest.raises(InvalidClass):
        lo.inverse_observation(CellRelation.OCCUPIED, 0, np.zeros(4), params3)


# -- posterior update ---------------------------------------------------------------


def test_update_noop_when_l_equals_prior():
    h = np.array([0.0, 1.0, -2.0])
    h0 = np.array([0.0, 0.4, 0.4])
    np.testing.assert_array_equal(lo.posterior_update(h, h0, h0), h)


def test_update_from_zero_prior():
    phi_minus = np.array([0.0, -1.0, -1.0])
    out = lo.posterior_update(np.zeros(3), phi_minus, np.zeros(3))
    np.testing.assert_array_equal(out, phi_minus)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_update_commutes(seed):
    rng = np.random.default_rng(seed)
    h, l1, l2, h0 = (rng.uniform(-5, 5, 4) for _ in range(4))
    for v in (h, l1, l2, h0):
        v[0] = 0.0
    a = lo.posterior_update(lo.posterior_update(h, l1, h0), l2, h0)
    b = lo.posterior_update(lo.posterior_update(h, l2, h0), l1, h0)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_update_length_mismatch():
    with pytest.raises(ValueError):
        lo.posterior_update(np.zeros(3), np.zeros(4), np.zeros(3))


# -- clamping -----------------------------------------------------------------------


def test_clamp_identity_inside(params3):
    h = np.array([0.0, 1.0, -5.9, 3.0])
    np.testing.assert_array_equal(lo.clamp(h, params3), h)


def test_clamp_idempotent(params3, rng):
    h = np.zeros(4)
    h[1:] = rng.uniform(-20, 20, 3)
    once = lo.clamp(h, params3)
    np.testing.assert_array_equal(lo.clamp(once, params3), once)


def test_clamp_saturates():
    params = SensorParams.default(1)
    out = lo.clamp(np.array([0.0, 99.0]), params)
    np.testing.assert_array_equal(out, [0.0, 6.0])
    # scalar min/max reference
    assert out[1] == min(max(99.0, -6.0), 6.0)


# -- entropy ------------------------------------------------------------------------


def test_entropy_uniform_is_ln3():
    assert lo.entropy(np.zeros(3)) == pytest.approx(LN3, abs=1e-14)


def test_entropy_certain_is_zero():
    h = lo.logodds_from_pmf(np.array([1.0, 0.0, 0.0]))
    assert lo.entropy(h) == 0.0


def test_entropy_green_wall_value():
    # frozen from a hand-checked scalar sum of -sum(p ln p)
    h = lo.logodds_from_pmf(np.array([0.1, 0.45, 0.45]))
    assert lo.entropy(h) == pytest.approx(0.9489154358953991, abs=1e-12)


def test_entropy_range(rng):
    rows = np.zeros((50, 4))
    for h in rows:
        h[1:] = rng.uniform(-8, 8, 3)
        e = lo.entropy(h)
        assert 0.0 <= e <= math.log(4) + 1e-15
    # a stack of beliefs, of any leading shape, gives the total
    total = sum(lo.entropy(h) for h in rows)
    assert lo.entropy(rows) == pytest.approx(total, rel=1e-13)
    assert lo.entropy(rows.reshape(5, 10, 4)) == lo.entropy(rows)


# -- f kernel -----------------------------------------------------------------------


def test_f_zero_phi_is_zero(rng):
    for _ in range(20):
        h = np.zeros(4)
        h[1:] = rng.uniform(-6, 6, 3)
        assert lo.f_logratio(np.zeros(4), h) == 0.0


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_f_equals_kl_oracle(k, rng):
    for _ in range(300):
        phi = np.zeros(k + 1)
        h = np.zeros(k + 1)
        phi[1:] = rng.uniform(-6, 6, k)
        h[1:] = rng.uniform(-6, 6, k)
        assert lo.f_logratio(phi, h) == pytest.approx(kl_oracle(phi, h), abs=1e-10)


def test_f_nonnegative(rng):
    for _ in range(200):
        phi = np.zeros(3)
        h = np.zeros(3)
        phi[1:] = rng.uniform(-10, 10, 2)
        h[1:] = rng.uniform(-10, 10, 2)
        assert lo.f_logratio(phi, h) >= 0.0


def test_f_rows_matches_scalar(rng):
    phi = np.zeros((7, 4))
    h = np.zeros((7, 4))
    phi[:, 1:] = rng.uniform(-6, 6, (7, 3))
    h[:, 1:] = rng.uniform(-6, 6, (7, 3))
    rows = lo.f_logratio_rows(phi, h)
    for i in range(7):
        assert rows[i] == pytest.approx(lo.f_logratio(phi[i], h[i]), abs=1e-13)


def test_f_large_phi_stable():
    phi = np.array([0.0, 600.0, -600.0])
    h = np.array([0.0, 1.0, -1.0])
    val = lo.f_logratio(phi, h)
    assert np.isfinite(val) and val >= 0.0
