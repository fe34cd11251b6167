"""Finite-difference Dirac operators, monogenic test fields, and the
monogenicity-preserving Moebius pullback."""
import dataclasses

import numpy as np
import pytest

from sphereglue.algebra import Multivector
from sphereglue.fields import (
    CliffordField,
    DomainError,
    constant_field,
    dirac_left_fd,
    dirac_right_fd,
    g_translate,
    moebius_pullback,
)
from sphereglue.moebius import cayley, identity_map, neck_inversion


def test_constant_field_dirac_zero():
    f = constant_field(Multivector.scalar(2.5, 2), 2)
    assert dirac_left_fd(f, [0.3, 0.4]).norm() <= 1e-12
    assert dirac_right_fd(f, [0.3, 0.4]).norm() <= 1e-12


def test_identity_field_dirac():
    """D applied to x gives sum_j e_j e_j = -n."""
    for n in (2, 3):
        f = CliffordField(n, n, lambda x, n=n: Multivector.vector(x, n).coeffs)
        got = dirac_left_fd(f, np.full(n, 0.3))
        assert np.allclose(got.coeffs[0], -n, atol=1e-9)
        assert got.max_grade_deviation(0) <= 1e-9
        got_r = dirac_right_fd(f, np.full(n, 0.3))
        assert np.allclose(got_r.coeffs[0], -n, atol=1e-9)


def test_g_translate_value():
    f = g_translate(np.array([1.0, 2.0]))
    assert np.allclose(f([2.0, 2.0]).vector_part(), [1.0, 0.0])


@pytest.mark.parametrize("n", [2, 3])
def test_g_translate_monogenic_both_sides(n):
    a = np.full(n, 0.5)
    f = g_translate(a)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-2, 2, n)
        if np.linalg.norm(x - a) < 0.5:
            continue
        assert dirac_left_fd(f, x, 1e-4).norm() <= 1e-6
        assert dirac_right_fd(f, x, 1e-4).norm() <= 1e-6


def test_g_translate_fd_order():
    """FD residual is O(h^2): Richardson slope at least 1.9."""
    f = g_translate(np.array([0.5, 0.5]))
    x = np.array([1.7, -0.9])
    r1 = dirac_left_fd(f, x, 2e-3).norm()
    r2 = dirac_left_fd(f, x, 1e-3).norm()
    assert np.log2(r1 / r2) >= 1.9


def test_domain_guard():
    f = g_translate(np.zeros(2))
    with pytest.raises(DomainError):
        f(np.zeros(2))
    with pytest.raises(DomainError):
        # the lower stencil point lands exactly on the singularity
        dirac_left_fd(f, [1e-4, 0.0], h=1e-4)


def test_pullback_identity_map():
    f = g_translate(np.array([2.0, 2.0]))
    pb = moebius_pullback(identity_map(2), f)
    x = np.array([0.1, -0.4])
    assert (pb(x) - f(x)).norm() <= 1e-12


def test_pullback_neck_of_constant_is_G():
    """J(psi', x) * 1 = ~x/||x||^n = x/||x||^n for vectors."""
    pb = moebius_pullback(neck_inversion(2), constant_field(Multivector.scalar(1.0, 2), 2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(0.3, 2.0, 2) * rng.choice([-1, 1], 2)
        expect = x / (x @ x)
        assert np.allclose(pb(x).vector_part(), expect, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_preserves_monogenicity_neck(n):
    f = g_translate(np.full(n, 2.0))
    pb = moebius_pullback(neck_inversion(n), f)
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 10:
        x = rng.uniform(-2, 2, n)
        if np.linalg.norm(x) < 0.4 or not pb.in_domain(x):
            continue
        assert dirac_left_fd(pb, x, 1e-4).norm() <= 1e-5
        checked += 1


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_preserves_monogenicity_cayley_ambient(n):
    """The Cayley matrix as a Moebius map of R^{n+1} (exponent n+1)."""
    cay = dataclasses.replace(cayley(n), kernel_exponent=n + 1)
    f = g_translate(np.array([3.0] + [0.0] * n), n=n + 1, dim_alg=n + 1)
    pb = moebius_pullback(cay, f, dim_in=n + 1)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        x = rng.uniform(-1.5, 1.5, n + 1)
        if not pb.in_domain(x):
            continue
        try:
            resid = dirac_left_fd(pb, x, 1e-4).norm()
        except DomainError:
            continue
        assert resid <= 1e-5
        checked += 1


def test_pullback_fd_order_estimate():
    pb = moebius_pullback(neck_inversion(2), g_translate(np.array([2.0, 1.0])))
    x = np.array([0.9, -0.7])
    r1 = dirac_left_fd(pb, x, 2e-3).norm()
    r2 = dirac_left_fd(pb, x, 1e-3).norm()
    assert np.log2(r1 / r2) >= 1.9


def test_pullback_dim_mismatch():
    f = g_translate(np.array([2.0, 2.0]))  # values in Cl_2
    with pytest.raises(ValueError):
        moebius_pullback(cayley(2), f)  # map lives in Cl_3
