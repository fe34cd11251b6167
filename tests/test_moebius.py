"""Vahlen maps: evaluation on the compactified plane, conformal weights,
composition/inversion, the Cayley transform, and the kernel covariance
identity."""
import dataclasses
import itertools

import numpy as np
import pytest

from sphereglue.algebra import gp_batch, vectors
from sphereglue.moebius import (
    INFINITY,
    SingularPointError,
    VahlenError,
    VahlenMap,
    apply,
    cauchy_kernel_G,
    cayley,
    cayley_embed,
    cayley_embed_jacobian,
    compose,
    covariance_residual,
    identity_map,
    inverse,
    neck_inversion,
    translation_map,
    weight_J,
    weight_J_rows,
)
from sphereglue import cli
from sphereglue.cli import _admissible_pairs, _draw_accepted, _random_maps
from sphereglue.manifold import chart_transfer, plane_sphere


# -- apply -------------------------------------------------------------------


def test_identity_fixes_points():
    psi = identity_map(2)
    x = np.array([0.7, -1.3])
    assert np.allclose(apply(psi, x).points, x)


def test_neck_inversion_values():
    psi = neck_inversion(2)
    assert np.allclose(apply(psi, np.array([2.0, 0.0])).points, [0.5, 0.0])
    assert not apply(psi, np.zeros(2)).finite
    assert np.allclose(apply(psi, INFINITY).points, np.zeros(2))


def test_neck_inversion_is_involution():
    psi = neck_inversion(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-2, 2, 3)
        if np.linalg.norm(x) < 0.1:
            continue
        assert np.allclose(apply(psi, apply(psi, x).points).points, x, atol=1e-12)


def test_translation():
    psi = translation_map(np.array([1.0, 2.0]))
    assert np.allclose(apply(psi, np.array([0.5, 0.5])).points, [1.5, 2.5])
    assert not apply(psi, INFINITY).finite


# -- weight_J ----------------------------------------------------------------


def test_weight_identity_map():
    psi = identity_map(2)
    w = weight_J(psi, np.array([3.0, -4.0]))
    assert np.allclose(w, [1, 0, 0, 0])


def test_weight_neck_inversion_at_e1():
    psi = neck_inversion(2)
    w = weight_J(psi, np.array([1.0, 0.0]))
    assert np.allclose(w, [0, 1, 0, 0])


def test_weight_norm_scaling():
    """For a unimodular map, ||J(psi, x)|| = ||cx+d||^(1-m)."""
    rng = np.random.default_rng(1)
    psi = compose(translation_map(np.array([0.4, -0.2])), neck_inversion(2))
    assert abs(abs(psi.pseudo_determinant) - 1.0) <= 1e-12
    for _ in range(20):
        x = rng.uniform(0.3, 2.0, 2)
        c, d = psi.coeffs[1]
        den = gp_batch(2, c, vectors(x, 2)) + d
        expect = np.linalg.norm(den) ** (1 - psi.kernel_exponent)
        assert abs(np.linalg.norm(weight_J(psi, x)) - expect) <= 1e-12 * expect


def test_weight_singular_point():
    psi = neck_inversion(2)
    with pytest.raises(SingularPointError):
        weight_J(psi, np.zeros(2))


# -- compose / inverse -------------------------------------------------------


def test_compose_pointwise():
    rng = np.random.default_rng(2)
    p1 = translation_map(np.array([1.0, -0.5]))
    p2 = neck_inversion(2)
    comp = compose(p2, p1)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        step = apply(p1, x)
        if not step.finite:
            continue
        expect = apply(p2, step.points)
        got = apply(comp, x)
        if not expect.finite:
            assert not got.finite
        else:
            assert np.allclose(got.points, expect.points, atol=1e-10)


def test_compose_neck_twice_is_identity():
    comp = compose(neck_inversion(2), neck_inversion(2))
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        assert np.allclose(apply(comp, x).points, x, atol=1e-12)


def test_inverse_round_trip():
    rng = np.random.default_rng(4)
    psi = compose(
        translation_map(np.array([0.3, 0.9])),
        compose(neck_inversion(2), translation_map(np.array([-1.1, 0.2]))),
    )
    inv = inverse(psi)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        y = apply(psi, x)
        if not y.finite:
            continue
        back = apply(inv, y.points)
        assert back.finite
        assert np.allclose(back.points, x, atol=1e-9)


def test_inverse_of_neck_is_neck():
    inv = inverse(neck_inversion(2))
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(0.2, 2.0, 2)
        assert np.allclose(apply(inv, x).points, apply(neck_inversion(2), x).points, atol=1e-12)


def test_compose_dim_mismatch():
    with pytest.raises(VahlenError):
        compose(identity_map(2), identity_map(3))


# -- cayley ------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_cayley_poles(n):
    c = cayley(n)
    at0 = apply(c, np.zeros(n)).points
    expect = np.zeros(n + 1)
    expect[n] = -1.0
    assert np.allclose(at0, expect, atol=1e-12)
    atinf = apply(c, INFINITY).points
    assert np.allclose(atinf, -expect, atol=1e-12)


def test_cayley_at_e1():
    c = cayley(2)
    got = apply(c, np.array([1.0, 0.0])).points
    assert np.allclose(got, [-1.0, 0.0, 0.0], atol=1e-12)


def test_cayley_images_on_unit_sphere():
    c = cayley(2)
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-5, 5, 2)
        u = apply(c, x).points
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_cayley_homeomorphism_round_trip():
    c = cayley(3)
    cinv = inverse(c)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-3, 3, 3)
        u = apply(c, x).points
        assert np.allclose(apply(cinv, u).points, np.append(x, 0.0), atol=1e-10)


def test_cayley_embed_matches_apply():
    c = cayley(2)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = rng.uniform(-4, 4, 2)
        assert np.allclose(cayley_embed(x, 2), apply(c, x).points, atol=1e-12)
    assert np.allclose(cayley_embed(INFINITY, 2), [0, 0, 1])


def test_cayley_embed_jacobian_fd():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1.5, 1.5, 3)
    jac = cayley_embed_jacobian(x)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (cayley_embed(x + e, 3) - cayley_embed(x - e, 3)) / (2 * h)
        assert np.allclose(jac[:, j], fd, atol=1e-8)


# -- Cauchy kernel G ---------------------------------------------------------


def test_kernel_values():
    assert np.allclose(cauchy_kernel_G([1.0, 0.0], 2), vectors([1.0, 0.0], 2))
    assert np.allclose(cauchy_kernel_G([2.0, 0.0], 2), vectors([0.5, 0.0], 2))
    assert np.allclose(cauchy_kernel_G([2.0, 0.0, 0.0], 3), vectors([0.25, 0.0, 0.0], 3))


def test_kernel_singularity():
    with pytest.raises(SingularPointError):
        cauchy_kernel_G(np.zeros(2), 2)


# -- covariance --------------------------------------------------------------


def _covariance(psi, x, y, weight_exponent_shift=0):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return covariance_residual(
        psi, x, y, apply(psi, x).points, apply(psi, y).points, weight_exponent_shift=weight_exponent_shift
    )


def test_covariance_identity_map():
    assert _covariance(identity_map(2), [1.0, 0.0], [0.0, 1.0]) <= 1e-14


def test_covariance_translation():
    psi = translation_map(np.array([0.7, -0.1]))
    assert _covariance(psi, [1.0, 0.2], [-0.3, 1.1]) <= 1e-14


def test_covariance_neck_inversion():
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.uniform(0.6, 1.8, 2) * rng.choice([-1, 1], 2)
        y = rng.uniform(0.6, 1.8, 2) * rng.choice([-1, 1], 2)
        if np.linalg.norm(x - y) < 0.1:
            continue
        assert _covariance(neck_inversion(2), x, y) <= 1e-10


def test_covariance_cayley():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, 2)
        y = rng.uniform(-1.5, 1.5, 2)
        if np.linalg.norm(x - y) < 0.1:
            continue
        assert _covariance(cayley(2), x, y) <= 1e-10


def _even_weight_maps(n):
    """Maps whose weights cx+d carry a bivector part, so the side of the
    reversion matters: compositions with the Cayley map and the
    plane_sphere chart transfers."""
    k = n + 1
    cay, neck = cayley(n), neck_inversion(k, n)
    shift = translation_map(np.array([0.3, -0.4, 0.2, 0.0][:k]), k, n)
    m = plane_sphere(n, 2.0)
    return {
        "cayley.cayley": compose(cay, cay),
        "neck.inverse(cayley)": compose(neck, inverse(cay)),
        "cayley.neck": compose(cay, neck),
        "translation.cayley": compose(shift, cay),
        "plane_sphere 1<-2": chart_transfer(m, 1, 2),
        "plane_sphere 2<-1": chart_transfer(m, 2, 1),
    }


@pytest.mark.parametrize("n", [2, 3])
def test_covariance_even_weight_maps(n):
    """G(psi x - psi y) = sgn J(psi,y)^{-1} G(x-y) (~J(psi,x))^{-1} to
    rounding, relative to ||G(psi x - psi y)||, where the weights are not
    reversion-invariant."""
    rng = np.random.default_rng(13)
    for name, psi in _even_weight_maps(n).items():
        k = psi.ambient_dim
        worst, done = 0.0, 0
        while done < 20:
            x = rng.uniform(-1.5, 1.5, k)
            y = rng.uniform(-1.5, 1.5, k)
            img = apply(psi, np.stack((x, y)))
            px, py = img.points
            if np.linalg.norm(x - y) < 0.2 or not img.finite.all():
                continue
            if np.linalg.norm(px - py) < 1e-3:
                continue
            try:
                res = covariance_residual(psi, x, y, px, py)
            except SingularPointError:
                continue
            worst = max(worst, res / np.linalg.norm(cauchy_kernel_G(px - py, psi.kernel_exponent, k)))
            done += 1
        assert worst <= 1e-12, f"{name}: {worst:.3e}"


def test_covariance_detects_wrong_weight_exponent():
    """Shifting the exponent of the J factors alone must break the identity
    by orders of magnitude (the control behind the convention tests)."""
    rng = np.random.default_rng(12)
    for shift in (-1, 1):
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 2)
            y = rng.uniform(-1.5, 1.5, 2)
            if np.linalg.norm(x - y) < 0.3:
                continue
            worst = max(worst, _covariance(cayley(2), x, y, weight_exponent_shift=shift))
        assert worst > 1e-7


def test_pseudo_determinant_values():
    assert identity_map(2).pseudo_determinant == 1.0
    assert neck_inversion(2).pseudo_determinant == 1.0
    assert cayley(2).pseudo_determinant == -2.0


def test_grade1_purity_enforced():
    from sphereglue.moebius import VahlenMap

    # a trivector component in Cl_3 pushes images off grade 1
    coeffs = np.zeros((2, 2, 8))
    coeffs[0, 0, 0] = 1.0
    coeffs[0, 0, 7] = 0.5
    coeffs[1, 1, 0] = 1.0
    bad = VahlenMap(coeffs, 3)
    with pytest.raises(VahlenError):
        apply(bad, np.array([1.0, 0.3, -0.2]))


# -- apply over point arrays -----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_apply_rows_are_one_point_apply(n):
    """Every row equals apply at that point bit for bit, over the maps the
    algebra suite samples (translations, neck, Cayley, compositions)."""
    rng = np.random.default_rng(4)
    for psi in _random_maps(rng, n, 40):
        x = rng.uniform(-2.0, 2.0, (3, 4, n))
        img = apply(psi, x)
        assert img.points.shape == (3, 4, psi.ambient_dim) and img.valid.all()
        for idx in np.ndindex(3, 4):
            one = apply(psi, x[idx])
            assert img.finite[idx] and np.array_equal(img.points[idx], one.points)


def test_apply_marks_the_pole_of_the_neck_inversion():
    x = np.array([[1.0, 2.0], [0.0, 0.0], [-0.5, 0.25]])
    img = apply(neck_inversion(2), x)
    assert img.finite.tolist() == [True, False, True]
    assert np.isnan(img.points[1]).all() and img.valid.all()
    assert not apply(neck_inversion(2), x[1]).finite
    one_point = [apply(neck_inversion(2), x[i]).points for i in (0, 2)]
    assert np.array_equal(img.points[[0, 2]], one_point)


@pytest.mark.parametrize("n", [2, 3])
def test_apply_flags_every_row_of_a_corrupt_map(n):
    bad = _random_maps(np.random.default_rng(2), n, 1, corrupt=True)[0]
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (16, n))
    img = apply(bad, x, raise_invalid=False)
    assert not img.valid.any()
    with pytest.raises(VahlenError):
        apply(bad, x)
    with pytest.raises(VahlenError):
        apply(bad, x[0])


def test_weight_rows_mark_singular_points():
    x = np.array([[0.0, 0.0], [1.0, -0.5]])
    w, regular = weight_J_rows(neck_inversion(2), x)
    assert regular.tolist() == [False, True]
    assert np.array_equal(w[1], weight_J(neck_inversion(2), x[1]))
    with pytest.raises(SingularPointError):
        weight_J(neck_inversion(2), x)


def test_singular_point_errors_name_the_first_offending_point():
    psi = compose(neck_inversion(2), translation_map(np.array([0.5, -0.25])))  # -(x + t)^{-1}
    x = np.array([[1.0, 0.0], [-0.5, 0.25], [2.0, 2.0], [-0.5, 0.25]])
    with pytest.raises(SingularPointError, match=r"singular at \[-0\.5, 0\.25\]$"):
        weight_J(psi, x)
    with pytest.raises(SingularPointError, match="INFINITY"):
        weight_J(psi, INFINITY)
    with pytest.raises(SingularPointError, match="at the origin"):
        cauchy_kernel_G(np.array([[1.0, 0.0], [0.0, 0.0]]), 2)


def test_invalid_image_error_names_the_point():
    bad = _random_maps(np.random.default_rng(2), 2, 1, corrupt=True)[0]
    with pytest.raises(VahlenError, match=r"image of \[0\.25, -1\.5\] is off grade 1 by "):
        apply(bad, np.array([[0.25, -1.5], [1.0, 1.0]]))


def test_vahlen_map_is_one_read_only_coefficient_array():
    psi = cayley(2)
    assert psi.coeffs.shape == (2, 2, 8) and psi.ambient_dim == 3
    assert [f.name for f in dataclasses.fields(psi)] == ["coeffs", "kernel_exponent"]
    with pytest.raises(ValueError):
        psi.coeffs[0, 0, 0] = 1.0
    for shape in ((2, 2, 6), (2, 8), (2, 2, 1), (3, 2, 4)):
        with pytest.raises(VahlenError, match="shape"):
            VahlenMap(np.zeros(shape), 2)
    with pytest.raises(VahlenError, match="kernel_exponent"):
        VahlenMap(np.zeros((2, 2, 4)), 0)
    stack = VahlenMap(np.zeros((3, 2, 2, 4)), 2)
    assert stack.coeffs.shape == (3, 2, 2, 4) and stack.ambient_dim == 2
    with pytest.raises(VahlenError, match="one map"):
        inverse(VahlenMap(np.stack([neck_inversion(2).coeffs] * 3), 2))


def _verify_algebra_pool(n, seed):
    """The maps verify-algebra samples at n and seed."""
    pool = []

    def record(*args, **kwargs):
        pool.extend(_random_maps(*args, **kwargs))
        return pool

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_random_maps", record)
        cli.cmd_verify_algebra(cli.RunConfig(n=n, seed=seed))
    return pool


@pytest.mark.parametrize("n, seed", [(2, 0), (2, 3), (2, 11), (3, 0), (3, 3), (3, 11), (2, "verify-algebra-1")])
def test_stack_matches_single_maps_bit_for_bit(n, seed):
    """apply, weight_J_rows, pseudo_determinant, weight_scale,
    covariance_residual and compose on a stack of maps give each map's own
    results bit for bit, over the algebra suite's pools grouped by
    (ambient_dim, kernel_exponent). verify-algebra's pool at n = 2, seed 1
    holds a map with pseudo-determinant 1 - 2^-53, where the weight scale
    abs(pd) ** 0.5 rounds to 1.0."""
    if seed == "verify-algebra-1":
        maps = _verify_algebra_pool(n, 1)
        edge = [psi for psi in maps if psi.pseudo_determinant == 1 - 2**-53]
        assert edge and all(psi.weight_scale == 1.0 for psi in edge)
    else:
        maps = _random_maps(np.random.default_rng(seed), n, 40)
    groups = {}
    for psi in maps:
        groups.setdefault((psi.ambient_dim, psi.kernel_exponent), []).append(psi)
    rng = np.random.default_rng(12)
    for (_, m), group in groups.items():
        stack = VahlenMap(np.array([psi.coeffs for psi in group]), m)
        column = VahlenMap(stack.coeffs[:, None], m)  # maps against (maps, 5) points
        pairs = np.array([_draw_accepted(rng, 5, -2.0, 2.0, 2 * n, _admissible_pairs(psi, n)) for psi in group])
        x, y = pairs[..., :n], pairs[..., n:]
        img = apply(column, np.stack((x, y)))
        w, regular = weight_J_rows(column, x)
        res = covariance_residual(column, x, y, *img.points)
        at_infinity = apply(stack, INFINITY)
        composed = compose(stack, VahlenMap(stack.coeffs[::-1], m))
        assert np.array_equal(stack.pseudo_determinant, [psi.pseudo_determinant for psi in group])
        assert np.array_equal(stack.weight_scale, [psi.weight_scale for psi in group])
        for i, psi in enumerate(group):
            one = apply(psi, np.stack((x[i], y[i])))
            assert np.array_equal(img.points[:, i], one.points) and np.array_equal(img.finite[:, i], one.finite)
            inf_one = apply(psi, INFINITY)
            assert np.array_equal(at_infinity.points[i], inf_one.points, equal_nan=True)
            assert at_infinity.finite[i] == inf_one.finite
            assert np.array_equal(w[i], weight_J_rows(psi, x[i])[0]) and regular[i].all()
            assert np.array_equal(res[i], covariance_residual(psi, x[i], y[i], *one.points))
            assert np.array_equal(composed.coeffs[i], compose(psi, group[-1 - i]).coeffs)


def test_compose_is_the_block_matrix_product():
    """Each block of compose(psi2, psi1) is the sum of Clifford products of
    the factors' blocks, row of psi2 times column of psi1."""
    psi2, psi1 = cayley(2), compose(translation_map(np.array([0.3, -1.1, 0.0]), 3, 2), neck_inversion(3, 2))
    got = compose(psi2, psi1).coeffs
    for i, j in itertools.product(range(2), range(2)):
        want = sum(gp_batch(3, psi2.coeffs[i, l], psi1.coeffs[l, j]) for l in range(2))
        assert np.array_equal(got[i, j], want)


def test_compose_rejects_mismatched_maps():
    with pytest.raises(VahlenError, match="cannot compose"):
        compose(identity_map(2), identity_map(3))
    with pytest.raises(VahlenError, match="cannot compose"):
        compose(cayley(2), identity_map(3))
