import math

import pytest

from spincouple import (
    DomainError,
    SettingVector,
    chsh_max,
    quantum_arcsin,
    random_settings,
    realizability_check,
    singlet_correlations,
    standard_chsh_settings,
    tsirelson,
    unit,
)


def _rotate_z(v: SettingVector, theta: float) -> SettingVector:
    c, s = math.cos(theta), math.sin(theta)
    return SettingVector(c * v.x - s * v.y, s * v.x + c * v.y, v.z)


def test_setting_vector_requires_unit_norm():
    SettingVector(0.0, 0.0, 1.0)
    SettingVector(0.6, 0.8, 0.0)
    with pytest.raises(DomainError):
        SettingVector(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        SettingVector(0.0, 0.0, 0.999)
    for bad in ((math.nan, 0.0, 0.0), (1.0, math.nan, 0.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(DomainError):
            SettingVector(*bad)


def test_unit_normalizes_and_rejects_zero():
    v = unit(3.0, 4.0, 0.0)
    assert (v.x, v.y, v.z) == pytest.approx((0.6, 0.8, 0.0))
    assert unit(0.0, 0.0, -7.0).z == -1.0
    with pytest.raises(DomainError):
        unit(0.0, 0.0, 0.0)
    for bad in ((math.inf, 0.0, 0.0), (math.nan, 1.0, 0.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(DomainError, match="norm"):
            unit(*bad)


def test_singlet_correlations_are_negated_dots():
    a1 = SettingVector(1.0, 0.0, 0.0)
    a2 = SettingVector(0.0, 1.0, 0.0)
    b1 = SettingVector(1.0, 0.0, 0.0)
    b2 = SettingVector(0.0, 0.0, 1.0)
    c = singlet_correlations(a1, a2, b1, b2)
    assert c.components() == (-1.0, 0.0, 0.0, 0.0)
    # aligned settings anticorrelate perfectly, orthogonal ones vanish


def test_rotation_invariance():
    a1, a2, b1, b2 = random_settings(99, 0)
    base = singlet_correlations(a1, a2, b1, b2).components()
    theta = 0.7342
    rotated = singlet_correlations(
        _rotate_z(a1, theta), _rotate_z(a2, theta), _rotate_z(b1, theta), _rotate_z(b2, theta)
    ).components()
    assert rotated == pytest.approx(base, abs=1e-12)


def test_standard_settings_saturate_tsirelson():
    c = singlet_correlations(*standard_chsh_settings())
    assert chsh_max(c) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    r = tsirelson(c)
    assert r.satisfied and r.tight
    q = quantum_arcsin(c)
    assert q.satisfied and q.tight
    assert realizability_check(c)


def test_random_settings_deterministic_and_unit():
    s1 = random_settings(7, 3)
    s2 = random_settings(7, 3)
    assert s1 == s2
    assert s1 != random_settings(7, 4)
    assert s1 != random_settings(8, 3)
    for v in s1:
        assert v.x * v.x + v.y * v.y + v.z * v.z == pytest.approx(1.0, abs=1e-9)


def test_random_settings_always_realizable():
    for index in range(50):
        quad = random_settings(2026, index)
        c = singlet_correlations(*quad)
        assert realizability_check(c, epsilon=1e-9)


def test_nonrealizable_vector_rejected():
    assert not realizability_check((1.0, 1.0, 1.0, -1.0))  # super-quantum box
    assert realizability_check((0.0, 0.0, 0.0, 0.0))
