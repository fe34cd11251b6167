"""Finite-difference Dirac operators, monogenic test fields, and the
monogenicity-preserving Moebius pullback."""
import dataclasses

import numpy as np
import pytest

from sphereglue.algebra import reversion, vectors
from sphereglue.fields import (
    DEFAULT_FD_STEP,
    CliffordField,
    DomainError,
    constant_field,
    dirac_left_fd,
    g_translate,
    moebius_pullback,
)
from sphereglue.moebius import cayley, compose, identity_map, neck_inversion, translation_map


def dirac_right(f, x, h=DEFAULT_FD_STEP):
    """The right Dirac operator sum_j (d f / dx_j) e_j as rev(D_l(rev o f)),
    which holds because every e_j is its own reversion."""
    rev = dataclasses.replace(f, func=lambda y: reversion(f.dim_alg, f.func(y)))
    return reversion(f.dim_alg, dirac_left_fd(rev, x, h))


def test_constant_field_dirac_zero():
    f = constant_field([2.5, 0.0, 0.0, 0.0], 2)
    assert np.linalg.norm(dirac_left_fd(f, [0.3, 0.4])) <= 1e-12
    assert np.linalg.norm(dirac_right(f, [0.3, 0.4])) <= 1e-12


def test_identity_field_dirac():
    """D applied to x gives sum_j e_j e_j = -n."""
    for n in (2, 3):
        f = CliffordField(n, n, lambda x, n=n: vectors(x, n))
        got = dirac_left_fd(f, np.full(n, 0.3))
        assert np.allclose(got[0], -n, atol=1e-9)
        assert np.linalg.norm(got[1:]) <= 1e-9
        got_r = dirac_right(f, np.full(n, 0.3))
        assert np.allclose(got_r[0], -n, atol=1e-9)


def test_g_translate_value():
    f = g_translate(np.array([1.0, 2.0]))
    assert np.allclose(f.values([2.0, 2.0])[[1, 2]], [1.0, 0.0])


@pytest.mark.parametrize("n", [2, 3])
def test_g_translate_monogenic_both_sides(n):
    a = np.full(n, 0.5)
    f = g_translate(a)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-2, 2, n)
        if np.linalg.norm(x - a) < 0.5:
            continue
        assert np.linalg.norm(dirac_left_fd(f, x, 1e-4)) <= 1e-6
        assert np.linalg.norm(dirac_right(f, x, 1e-4)) <= 1e-6


def test_g_translate_fd_order():
    """FD residual is O(h^4): slope at least 3.9 at steps where the truncation
    error still dominates rounding."""
    f = g_translate(np.array([0.5, 0.5]))
    x = np.array([1.7, -0.9])
    r1 = np.linalg.norm(dirac_left_fd(f, x, 4e-2))
    r2 = np.linalg.norm(dirac_left_fd(f, x, 2e-2))
    assert np.log2(r1 / r2) >= 3.9


def test_domain_guard():
    f = g_translate(np.zeros(2))
    with pytest.raises(DomainError):
        f.values(np.zeros(2))
    with pytest.raises(DomainError):
        # the lower stencil point lands exactly on the singularity
        dirac_left_fd(f, [1e-4, 0.0], h=1e-4)


@pytest.mark.parametrize("n", [2, 3])
def test_dirac_on_point_array_matches_one_point_calls(n):
    """One stencil evaluation over a point array gives each point's
    one-point result bit for bit, on a Moebius pullback and on both sides."""
    psi = compose(translation_map(np.full(n, 0.3)), neck_inversion(n))
    pb = moebius_pullback(psi, g_translate(np.full(n, 2.5)))
    x = np.random.default_rng(6).uniform(0.5, 1.5, (2, 3, n))
    for dirac in (dirac_left_fd, dirac_right):
        got = dirac(pb, x, 1e-4)
        assert got.shape == (2, 3, 2**n)
        for idx in np.ndindex(2, 3):
            one = dirac(pb, x[idx], 1e-4)
            assert one.shape == (2**n,) and np.array_equal(got[idx], one)


def test_domain_guard_on_point_array():
    """One stencil point of one sample on the singularity fails the call."""
    f = g_translate(np.zeros(2))
    with pytest.raises(DomainError):
        dirac_left_fd(f, [[0.5, 0.5], [1e-4, 0.0]], h=1e-4)
    pb = moebius_pullback(neck_inversion(2), g_translate(np.array([2.0, 0.0])))
    with pytest.raises(DomainError):
        # x + h e_1 = (0.5, 0), which the neck inversion sends onto the pole
        dirac_left_fd(pb, [[1.0, 1.0], [0.5 - 1e-4, 0.0]], h=1e-4)


def test_stencil_error_names_the_first_point_that_leaves_the_domain():
    f = g_translate(np.zeros(2))
    x = [[0.5, 0.5], [1e-4, 0.0], [0.0, -5e-5]]
    with pytest.raises(DomainError, match=r"stencil of \[0\.0001, 0\.0\] exits the field domain"):
        dirac_left_fd(f, x, h=1e-4)
    with pytest.raises(DomainError, match=r"finite-difference stencil of \[0\.0, -5e-05\] exits"):
        dirac_right(f, x[2], h=1e-4)


def test_pullback_identity_map():
    f = g_translate(np.array([2.0, 2.0]))
    pb = moebius_pullback(identity_map(2), f)
    x = np.array([0.1, -0.4])
    assert np.linalg.norm(pb.values(x) - f.values(x)) <= 1e-12


def test_pullback_neck_of_constant_is_G():
    """J(psi', x) * 1 = ~x/||x||^n = x/||x||^n for vectors."""
    pb = moebius_pullback(neck_inversion(2), constant_field([1.0, 0.0, 0.0, 0.0], 2))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(0.3, 2.0, 2) * rng.choice([-1, 1], 2)
        expect = x / (x @ x)
        assert np.allclose(pb.values(x)[[1, 2]], expect, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_preserves_monogenicity_neck(n):
    f = g_translate(np.full(n, 2.0))
    pb = moebius_pullback(neck_inversion(n), f)
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 10:
        x = rng.uniform(-2, 2, n)
        if np.linalg.norm(x) < 0.4 or not np.all(pb.domain(x)):
            continue
        assert np.linalg.norm(dirac_left_fd(pb, x, 1e-4)) <= 1e-5
        checked += 1


@pytest.mark.parametrize("n", [2, 3])
def test_pullback_preserves_monogenicity_cayley_ambient(n):
    """The Cayley matrix as a Moebius map of R^{n+1} (exponent n+1)."""
    cay = dataclasses.replace(cayley(n), kernel_exponent=n + 1)
    f = g_translate(np.array([3.0] + [0.0] * n), n=n + 1, dim_alg=n + 1)
    pb = moebius_pullback(cay, f)
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        x = rng.uniform(-1.5, 1.5, n + 1)
        if not np.all(pb.domain(x)):
            continue
        try:
            resid = np.linalg.norm(dirac_left_fd(pb, x, 1e-4))
        except DomainError:
            continue
        assert resid <= 1e-5
        checked += 1


def test_pullback_fd_order_estimate():
    pb = moebius_pullback(neck_inversion(2), g_translate(np.array([2.0, 1.0])))
    x = np.array([0.9, -0.7])
    r1 = np.linalg.norm(dirac_left_fd(pb, x, 4e-2))
    r2 = np.linalg.norm(dirac_left_fd(pb, x, 2e-2))
    assert np.log2(r1 / r2) >= 3.9


def test_pullback_dim_mismatch():
    f = g_translate(np.array([2.0, 2.0]))  # values in Cl_2
    with pytest.raises(ValueError):
        moebius_pullback(cayley(2), f)  # map lives in Cl_3
