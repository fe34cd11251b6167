"""Surface quadrature, the Cauchy integral formula, sections, and the
Plemelj projections."""
import dataclasses
import functools
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from sphereglue import cli, integration, kernel
from sphereglue.algebra import Multivector, clifford_group_inverse, gp_batch, row_norms, vectors
from sphereglue.fields import CliffordField, DomainError, constant_field, dirac_left_fd, g_translate
from sphereglue.integration import (
    Hypersurface,
    SurfaceError,
    _gauss_nodes,
    _lift_weight,
    cauchy_integral,
    chart_circle,
    chart_sphere,
    node_geometry,
    plemelj_projections,
    representatives,
    section_from_germ,
    unit_sphere_area,
)
from sphereglue.kernel import DiagonalError, kernel_CM
from sphereglue.manifold import ManifoldError, ManifoldPoint, embed, plane_sphere, two_spheres
from sphereglue.moebius import cauchy_kernel_G, cayley, weight_J


@pytest.fixture
def m2():
    return two_spheres(2, 2.0)


@pytest.fixture
def m3():
    return two_spheres(3, 2.0)


def _gp(*factors):
    """The product of Cl_3 coefficient arrays, left to right."""
    return functools.reduce(lambda a, b: gp_batch(3, a, b), factors)


# -- measure oracles ---------------------------------------------------------


def test_omega_n():
    assert abs(unit_sphere_area(2) - 2 * np.pi) <= 1e-14
    assert abs(unit_sphere_area(3) - 4 * np.pi) <= 1e-13


def _measure(m, s):
    """The embedded surface measure of s at its quadrature order: the rule
    weights times the sqrt-Gram weights of the nodes."""
    t, w = _gauss_nodes(s.bounds, s.quad_order)
    return w @ node_geometry(m, s, t).weight


def test_great_circle_measure(m2):
    """The chart unit circle maps to the equator of the embedded sphere."""
    s = chart_circle(m2, 1, np.zeros(2), 1.0, 32)
    assert abs(_measure(m2, s) - 2 * np.pi) <= 1e-10


def test_colatitude_circle_measure(m2):
    """Chart radius rho maps to a circle of circumference 2*pi*2rho/(rho^2+1)."""
    for rho in (0.5, 2.0, 3.0):
        s = chart_circle(m2, 1, np.zeros(2), rho, 32)
        expect = 2 * np.pi * 2 * rho / (rho**2 + 1)
        assert abs(_measure(m2, s) - expect) <= 1e-10


def test_sphere_measure(m3):
    """The chart unit sphere maps to the equatorial 2-sphere: area 4*pi."""
    s = chart_sphere(m3, 1, np.zeros(3), 1.0, 24)
    assert abs(_measure(m3, s) - 4 * np.pi) <= 1e-8


def test_report_fields(m2):
    sec = section_from_germ(m2, constant_field(np.eye(8)[0], 2))
    rep = cauchy_integral(m2, _surf(m2, 3.0, 16), sec, ManifoldPoint(1, np.array([1.2, 0.4])))
    assert rep.nodes_used == 16
    assert rep.estimated_error >= 0.0


# -- outward normal ----------------------------------------------------------


def test_equator_normal_bounding_south_cap(m2):
    """Cap around -e3: at embedded point (1,0,0) the outward normal is
    (0,0,1)."""
    s = chart_circle(m2, 1, np.zeros(2), 1.0, 16, interior=ManifoldPoint(1, np.zeros(2)))
    # chart coordinate (-1, 0) embeds to (1, 0, 0)
    t = np.array([[np.pi]])
    u = embed(m2, ManifoldPoint(1, s.param(t)[0]))
    assert np.allclose(u, [1, 0, 0], atol=1e-12)
    nrm = node_geometry(m2, s, t).normal[0]
    assert np.allclose(nrm, [0, 0, 1], atol=1e-12)


@pytest.mark.parametrize(
    "m2",
    [two_spheres(2, 2.0), two_spheres(2, 2.0, (1.5, 1.0)), plane_sphere(2, 2.0)],
    ids=["two_spheres", "scale1", "plane_sphere"],
)
def test_normal_orthogonality(m2):
    s = chart_circle(m2, 1, np.array([0.2, -0.1]), 2.5, 16, interior=ManifoldPoint(1, np.zeros(2)))
    for t in np.linspace(0, 2 * np.pi, 9)[:-1]:
        tv = np.array([[t]])
        nrm = node_geometry(m2, s, tv).normal[0]
        u = embed(m2, ManifoldPoint(1, s.param(tv)[0]))
        # the embedded chart-1 picture is a sphere about the origin or the
        # coordinate plane x_{n+1} = 0
        axis = u if m2.chart(1).has_sphere else np.array([0.0, 0.0, 1.0])
        assert abs(np.linalg.norm(nrm) - 1.0) <= 1e-12
        assert abs(nrm @ axis) <= 1e-12  # tangent to the embedded manifold
        h = 1e-6
        du = (
            embed(m2, ManifoldPoint(1, s.param(tv + h)[0]))
            - embed(m2, ManifoldPoint(1, s.param(tv - h)[0]))
        ) / (2 * h)
        assert abs(nrm @ du / np.linalg.norm(du)) <= 1e-9


@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_interior_point_at_infinity_is_rejected(kind):
    """A chart-1 circle whose interior point is the origin of chart 2, which
    has no coordinates in chart 1: node geometry raises a SurfaceError that
    names the point, and no RuntimeWarning escapes on the way there."""
    m = two_spheres(2, 2.0) if kind == "two_spheres" else plane_sphere(2, 2.0)
    s = chart_circle(m, 1, np.zeros(2), 3.0, 16, interior=ManifoldPoint(2, np.zeros(2)))
    msg = r"interior point \[0\.0, 0\.0\] in chart 2 has no finite coordinates in chart 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SurfaceError, match=msg):
            node_geometry(m, s, _gauss_nodes(s.bounds, 16)[0])
        with pytest.raises(SurfaceError, match=msg):
            cauchy_integral(m, s, section_from_germ(m, _germ(m)), ManifoldPoint(1, np.array([1.2, 0.4])))


# -- Cauchy integral ---------------------------------------------------------


def _germ(m):
    pole = np.zeros(m.n)
    pole[0] = 4.0
    return g_translate(pole, n=m.n, dim_alg=m.n + 1)


def _surf(m, radius, order):
    interior = ManifoldPoint(1, np.append([0.6], np.zeros(m.n - 1)))
    if m.n == 2:
        return chart_circle(m, 1, np.zeros(2), radius, order, interior=interior)
    return chart_sphere(m, 1, np.zeros(3), radius, order, interior=interior)


def test_constant_germ_reproduces(m2):
    sec = section_from_germ(m2, constant_field(np.eye(8)[0], 2))
    s = _surf(m2, 3.0, 48)
    y = ManifoldPoint(1, np.array([1.2, 0.4]))
    rep = cauchy_integral(m2, s, sec, y)
    assert (rep.value - sec.value_at(y)).norm() <= 1e-8


def test_same_chart_reproduction(m2):
    sec = section_from_germ(m2, _germ(m2))
    s = _surf(m2, 3.0, 64)
    for coord in ([1.2, 0.4], [0.7, -0.3], [2.5, 0.0]):
        y = ManifoldPoint(1, np.array(coord))
        rep = cauchy_integral(m2, s, sec, y)
        assert (rep.value - sec.value_at(y)).norm() <= 1e-10


def test_cross_glue_reproduction(m2):
    sec = section_from_germ(m2, _germ(m2))
    s = _surf(m2, 3.0, 64)
    for coord in ([3.0, 0.0], [2.5, 1.0]):
        y = ManifoldPoint(2, np.array(coord))
        rep = cauchy_integral(m2, s, sec, y)
        assert (rep.value - sec.value_at(y)).norm() <= 1e-10


def test_reproduction_n3(m3):
    sec = section_from_germ(m3, _germ(m3))
    s = _surf(m3, 3.0, 32)
    y = ManifoldPoint(1, np.array([1.2, 0.4, 0.1]))
    rep = cauchy_integral(m3, s, sec, y)
    assert (rep.value - sec.value_at(y)).norm() <= 1e-5


def test_convergence_order(m2):
    """Error decays at order >= 2 under order doubling until the plateau."""
    sec = section_from_germ(m2, _germ(m2))
    y = ManifoldPoint(2, np.array([2.5, 1.0]))
    exact = sec.value_at(y)
    errs = []
    for order in (8, 16, 32):
        rep = cauchy_integral(m2, _surf(m2, 3.0, order), sec, y)
        errs.append((rep.value - exact).norm())
    assert np.log2(errs[0] / errs[1]) >= 2.0
    assert np.log2(errs[1] / errs[2]) >= 2.0


def test_euclidean_chart_plane_oracle(m2):
    """Unweighting the manifold integral recovers the flat chart-plane
    Cauchy integral of the germ computed by an independent quadrature."""
    germ = _germ(m2)
    sec = section_from_germ(m2, germ)
    y = np.array([1.2, 0.4])
    rep = cauchy_integral(m2, _surf(m2, 3.0, 64), sec, ManifoldPoint(1, y))
    cay = cayley(2)
    manifold_value = Multivector(3, weight_J(cay, y)) * rep.value

    # independent flat oracle: trapezoid rule on the chart circle
    nn = 400
    ts = 2 * np.pi * (np.arange(nn) + 0.5) / nn
    acc = np.zeros(8)
    for t in ts:
        x = 3.0 * np.array([np.cos(t), np.sin(t)])
        n_out = np.array([np.cos(t), np.sin(t), 0.0])
        gk = cauchy_kernel_G(np.append(x - y, 0.0), 2, 3)
        step = _gp(gk, vectors(-n_out, 3), germ.values(x))
        acc = acc + step * (3.0 * 2 * np.pi / nn)
    flat_value = Multivector(3, acc / (2 * np.pi))
    assert (manifold_value - flat_value).norm() <= 1e-8


def test_contour_independence(m2):
    """A body contour and one dipping into the neck enclose the same y."""
    sec = section_from_germ(m2, _germ(m2))
    y = ManifoldPoint(1, np.array([1.2, 0.4]))
    r_a = cauchy_integral(m2, _surf(m2, 3.0, 64), sec, y)
    r_b = cauchy_integral(m2, _surf(m2, 1.5, 64), sec, y)
    combined = 2.0 * (r_a.estimated_error + r_b.estimated_error) + 1e-13
    assert (r_a.value - r_b.value).norm() <= combined


def test_negative_controls_break_reproduction(m2):
    sec = section_from_germ(m2, _germ(m2))
    s = _surf(m2, 3.0, 64)
    y = ManifoldPoint(2, np.array([2.5, 1.0]))
    good = (cauchy_integral(m2, s, sec, y).value - sec.value_at(y)).norm()
    bad = {}
    for key in ("break_weight", "break_normal"):
        with cli.patched([(*cli.CONTROLS[key], 1)]):
            bad[key] = (cauchy_integral(m2, s, sec, y).value - sec.value_at(y)).norm()
    assert bad["break_weight"] >= 100 * max(good, 1e-6)
    assert bad["break_normal"] >= 100 * max(good, 1e-6)


# -- sections ----------------------------------------------------------------


def test_section_chart2_representative_monogenic(m2):
    """J(cayley, y2) * rep(2, y2) is flat monogenic in the chart-2 plane."""
    sec = section_from_germ(m2, _germ(m2))
    cay = cayley(2)
    f = CliffordField(2, 3, lambda yc: gp_batch(3, weight_J(cay, yc), sec.value_at(ManifoldPoint(2, yc))))
    rng = np.random.default_rng(0)
    for _ in range(5):
        y = rng.uniform(1.2, 2.8, 2)
        assert np.linalg.norm(dirac_left_fd(f, y, 1e-4)) <= 1e-5


def test_section_neck_agreement(m2):
    """Chart representatives at identified neck points are related by the
    transfer weight."""
    from sphereglue.manifold import apply_transition, chart_transfer

    sec = section_from_germ(m2, _germ(m2))
    trans = chart_transfer(m2, 1, 2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        # |y2| within [0.85, 1.98], inside the neck (1/r, r) = (0.5, 2)
        y2 = rng.uniform(0.6, 1.4, 2) * rng.choice([-1, 1], 2)
        y1 = apply_transition(m2, y2)
        w = Multivector(3, weight_J(trans, embed(m2, ManifoldPoint(2, y2))))
        lhs = sec.value_at(ManifoldPoint(2, y2))
        rhs = w * sec.value_at(ManifoldPoint(1, y1))
        assert (lhs - rhs).norm() <= 1e-10


def test_germ_algebra_dim_checked(m2):
    with pytest.raises(ValueError):
        section_from_germ(m2, g_translate(np.array([4.0, 0.0])))  # Cl_2 values


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [two_spheres, plane_sphere])
def test_representatives_of_several_germs_are_each_germ_alone(kind, n):
    """representatives of F germs holds, in column i, the representatives of
    germ i alone and the section's value_at, bit for bit, for chart-1 and
    chart-2 point arrays (body and neck) and for one point. The arrays of 5
    and 300 points take gp_batch's plain, skipping and blocked paths."""
    m = kind(n, 2.0)
    germs = [
        _germ(m),
        constant_field(np.eye(2 << n)[0], n),
        g_translate(-3.5 * np.eye(n)[n - 1], n=n, dim_alg=n + 1),
    ]
    rng = np.random.default_rng(n)
    for size in (5, 300):
        v = rng.normal(size=(size, n))
        coord = v / row_norms(v)[:, None] * rng.uniform(0.6, 3.5, (size, 1))
        for chart in (1, 2):
            p = ManifoldPoint(chart, coord)
            rows = representatives(m, p, germs)
            assert rows.shape == (size, 3, 2 << n)
            for i, germ in enumerate(germs):
                assert rows[:, i].tobytes() == representatives(m, p, [germ])[:, 0].tobytes()
                assert rows[:, i].tobytes() == section_from_germ(m, germ).value_at(p).tobytes()
            one = representatives(m, ManifoldPoint(chart, coord[0]), germs)
            assert one.shape == (3, 2 << n) and one.tobytes() == rows[0].tobytes()


@pytest.mark.parametrize("kind", [two_spheres, plane_sphere])
def test_sections_reject_inadmissible_points(kind, monkeypatch):
    """A section evaluated at a point with |x| <= 1/r, in either chart, raises
    a ManifoldError naming the first such point and its chart, for one point
    and for arrays, before any transition or weight is evaluated and
    without a RuntimeWarning."""
    m = kind(2, 2.0)
    sec = section_from_germ(m, _germ(m))
    refuse = lambda *args: pytest.fail("a weight was evaluated")
    monkeypatch.setattr(integration, "_lift_weight", refuse)
    monkeypatch.setattr(kernel, "_target_weight", refuse)
    cases = [
        (2, [0.0, 0.0], "[0.0, 0.0]"),
        (1, [0.1, 0.0], "[0.1, 0.0]"),
        (1, [0.0, 0.5], "[0.0, 0.5]"),
        (2, [[3.0, 0.0], [0.1, 0.2], [0.0, 0.0]], "[0.1, 0.2]"),
        (1, [[[3.0, 0.0]], [[0.0, -0.3]]], "[0.0, -0.3]"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for chart, coord, named in cases:
            p = ManifoldPoint(chart, coord)
            message = re.escape(f"section point {named} in chart {chart} is inadmissible")
            with pytest.raises(ManifoldError, match=message):
                sec.value_at(p)
            with pytest.raises(ManifoldError, match=message):
                representatives(m, p, [sec.germ, constant_field(np.eye(8)[0], 2)])


# -- Plemelj projections -----------------------------------------------------


def test_plemelj_monogenic_trace(m2):
    sec = section_from_germ(m2, _germ(m2))
    s = _surf(m2, 3.0, 64)
    res = plemelj_projections(m2, s, lambda p: sec.value_at(p), n_nodes=128)
    assert max(v.norm() for v in res.g_minus) <= 1e-6
    assert max(
        (res.g_plus[i] + res.g_minus[i] - res.g[i]).norm() for i in range(128)
    ) <= 1e-14


def test_plemelj_constant_germ_trace(m2):
    sec = section_from_germ(m2, constant_field(np.eye(8)[0], 2))
    s = _surf(m2, 3.0, 64)
    res = plemelj_projections(m2, s, lambda p: sec.value_at(p), n_nodes=64)
    assert max(v.norm() for v in res.g_minus) <= 1e-6


def test_plemelj_defect_halves(m2):
    sec = section_from_germ(m2, _germ(m2))
    s = _surf(m2, 3.0, 64)
    d = {}
    for nn in (64, 128):
        res = plemelj_projections(m2, s, lambda p: sec.value_at(p), n_nodes=nn)
        d[nn] = max(v.norm() for v in res.g_minus)
    assert d[128] <= 0.5 * d[64]


def _mixed_data(p):
    c = p.coord
    return vectors(np.stack([np.sin(c[..., 0]), np.cos(c[..., 1]), np.full(c.shape[:-1], 0.1)], axis=-1), 3)


def test_plemelj_mixed_data_partition(m2):
    """Arbitrary (non-monogenic) data still splits exactly."""
    s = _surf(m2, 3.0, 64)
    res = plemelj_projections(m2, s, _mixed_data, n_nodes=64)
    assert max(
        (res.g_plus[i] + res.g_minus[i] - res.g[i]).norm() for i in range(64)
    ) <= 1e-14
    # idempotence probe: projecting the projection changes little
    res2 = plemelj_projections(m2, s, lambda p: np.array([v.coeffs for v in res.g_plus]), n_nodes=64)
    first = max(v.norm() for v in res.g_minus)
    second = max(v.norm() for v in res2.g_minus)
    assert second <= 2.0 * first + 1e-10


def test_plemelj_rows_are_the_parts_array(m2):
    """g_plus, g_minus and g are the rows of parts (3, N, 2^3), bit for bit,
    built once on first read."""
    res = plemelj_projections(m2, _surf(m2, 3.0, 64), _mixed_data, n_nodes=16)
    assert res.parts.shape == (3, 16, 8)
    for part, rows in zip(res.parts, (res.g_plus, res.g_minus, res.g)):
        assert len(rows) == 16 and all(v.dim == 3 and np.array_equal(v.coeffs, row) for v, row in zip(rows, part))
    assert res.g_minus is res.g_minus


def _plemelj_g_minus_per_target(m, s, g, nn):
    """Reference: the regularized offset rule summed separately for each
    target node i, one kernel_CM pair at a time: the nodes j with j - i odd
    at step 2h, each with the constant-germ section that matches g at node
    i subtracted from its data."""
    (a, b) = s.bounds[0]
    h = (b - a) / nn
    geo = node_geometry(m, s, a + (np.arange(nn)[:, None] + 0.5) * h)
    pts = [ManifoldPoint(s.chart, c) for c in geo.point.coord]
    gvals = g(geo.point)
    unit_sec = section_from_germ(m, constant_field(np.eye(8)[0], 2))
    wsec = [unit_sec.value_at(p).coeffs for p in pts]
    nhat = vectors(-geo.normal, 3)
    out = []
    for i in range(nn):
        ci = _gp(clifford_group_inverse(3, wsec[i]), gvals[i])
        acc = np.zeros(8)
        for j in range(i + 1, i + nn, 2):
            j %= nn
            dvals = gvals[j] - _gp(wsec[j], ci)
            acc = acc + _gp(kernel_CM(m, pts[j], pts[i]).coeffs, nhat[j], dvals) * geo.weight[j]
        cs = acc * (4.0 * h / unit_sphere_area(2)) + gvals[i]
        out.append(Multivector(3, (gvals[i] - cs) * 0.5))
    return out


# the three n = 2 manifolds that hardy accepts: both kinds, and a scaled chart 1
_PLEMELJ_MANIFOLDS = {
    "two_spheres": lambda: two_spheres(2, 2.0),
    "scale1": lambda: two_spheres(2, 2.0, (1.5, 1.0)),
    "plane_sphere": lambda: plane_sphere(2, 2.0),
}


_PER_TARGET_CASES = [(d, nn, k) for k in _PLEMELJ_MANIFOLDS for nn in (16, 32) for d in ("section", "mixed")]


# two_spheres cases keep their bare ids, e.g. [mixed-16]; the others append the manifold
@pytest.mark.parametrize(
    "data, nn, kind",
    _PER_TARGET_CASES,
    ids=[f"{d}-{nn}" + ("" if k == "two_spheres" else f"-{k}") for d, nn, k in _PER_TARGET_CASES],
)
def test_plemelj_matches_per_target_sum(data, nn, kind):
    m = _PLEMELJ_MANIFOLDS[kind]()
    g = section_from_germ(m, _germ(m)).value_at if data == "section" else _mixed_data
    s = _surf(m, 3.0, nn)
    res = plemelj_projections(m, s, g, n_nodes=nn)
    ref = _plemelj_g_minus_per_target(m, s, g, nn)
    assert max((res.g_minus[i] - ref[i]).norm() for i in range(nn)) <= 1e-13


@pytest.mark.parametrize("nn", [4, 16, 64, 256])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_plemelj_half_is_the_shifted_half_order_rule(kind, nn):
    """The even nodes a + (2i + 1/2) h are the N/2 midpoint nodes of the
    curve with bounds shifted by -h/2, so half equals a fresh run there. At
    N = 4 that run would have 2 nodes, so the per-target sum stands in."""
    m = _PLEMELJ_MANIFOLDS[kind]()
    g = section_from_germ(m, _germ(m)).value_at
    s = _surf(m, 3.0, nn)
    res = plemelj_projections(m, s, g)
    assert res.parts.shape == (3, nn, 8) and res.half.shape == (3, nn // 2, 8)
    (a, b), h = s.bounds[0], (s.bounds[0][1] - s.bounds[0][0]) / nn
    shifted = dataclasses.replace(s, bounds=((a - h / 2, b - h / 2),), quad_order=nn // 2)
    if nn // 2 >= 4:
        want = plemelj_projections(m, shifted, g).parts
    else:
        gs = g(node_geometry(m, shifted, a - h / 2 + (np.arange(nn // 2)[:, None] + 0.5) * 2 * h).point)
        g_minus = np.array([v.coeffs for v in _plemelj_g_minus_per_target(m, shifted, g, nn // 2)])
        want = np.stack((gs - g_minus, g_minus, gs))
    assert np.max(np.abs(res.half - want)) <= 1e-13 * np.max(np.abs(want))


def test_plemelj_coincident_nodes_raise(m2):
    """A circle traversed twice puts node j + N/2 on node j. The kernel is
    filled from per-node data, yet every off-diagonal pair is still checked:
    the coincident pair raises and names the point."""
    nn, h = 16, 2.0 * np.pi / 16
    s = Hypersurface(
        1,
        ((0.0, 2.0 * np.pi),),
        lambda t: 3.0 * np.stack([np.cos(2.0 * t[..., 0]), np.sin(2.0 * t[..., 0])], axis=-1),
        lambda t: 6.0 * np.stack([-np.sin(2.0 * t[..., 0]), np.cos(2.0 * t[..., 0])], axis=-1)[..., None],
        nn,
        ManifoldPoint(1, np.zeros(2)),
        closed=True,
    )
    first = s.param(np.array([[0.5 * h]]))[0].tolist()
    with pytest.raises(DiagonalError, match=re.escape(f"y = {first} in chart 1")):
        plemelj_projections(m2, s, section_from_germ(m2, _germ(m2)).value_at)


@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_plemelj_at_rounding_for_large_n(kind):
    """Once resolved, the splitting of a monogenic trace is exact to rounding."""
    m = _PLEMELJ_MANIFOLDS[kind]()
    sec = section_from_germ(m, _germ(m))
    for nn in (256, 512):
        res = plemelj_projections(m, _surf(m, 3.0, nn), sec.value_at)
        assert max(v.norm() for v in res.g_minus) <= 1e-14, nn


def test_plemelj_operator_size_at_1024(m2):
    """At N = 1024 the largest arrays are the kernel's one fill, three
    (N/2, N) blade matrices filled in place, and its (N/2, N) norm buffer:
    two (N, N) float arrays (16.8 MB). The traced allocation peak (18.9 MB)
    stays below two and a half, where a fill of all N^2 pairs read 37.4 MB,
    and the projections run in a fraction of a second."""
    nn = 1024
    sec, s = section_from_germ(m2, _germ(m2)), _surf(m2, 3.0, nn)
    start = time.perf_counter()
    res = plemelj_projections(m2, s, sec.value_at)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        plemelj_projections(m2, s, sec.value_at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * nn * nn * 8 <= peak < 2.5 * nn * nn * 8, peak
    assert max(v.norm() for v in res.g_minus) <= 1e-14
    assert seconds < 0.6, seconds


def test_plemelj_requires_closed_curve(m2):
    s = Hypersurface(
        1,
        ((0.0, np.pi),),
        lambda t: 3.0 * np.array([np.cos(t[0]), np.sin(t[0])]),
        lambda t: 3.0 * np.array([[-np.sin(t[0])], [np.cos(t[0])]]),
        32,
        ManifoldPoint(1, np.zeros(2)),
        closed=False,
    )
    with pytest.raises(SurfaceError):
        plemelj_projections(m2, s, lambda p: Multivector(3, np.eye(8)[0]))


def test_plemelj_requires_a_chart_1_curve(m2):
    """The regularizing section W c is read in chart 1, so a curve in chart 2
    is refused."""
    s = chart_circle(m2, 2, np.zeros(2), 3.0, 16, interior=ManifoldPoint(2, np.array([0.6, 0.0])))
    with pytest.raises(SurfaceError, match="chart 1"):
        plemelj_projections(m2, s, lambda p: np.tile(np.eye(8)[0], (len(p.coord), 1)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", [two_spheres, plane_sphere])
def test_lift_weight_is_the_constant_germ_section(kind, n):
    """The weight W that Plemelj reads at chart-1 nodes equals the chart-1
    representative W 1 of the section with the constant germ 1, every
    coefficient exactly (the product only turns W's negative zeros into
    positive ones); on a plane chart 1 it is the scalar 1 on every row. The
    points are admissible in chart 1: |coord| >= 0.6 sqrt(n) > 1/r."""
    m = kind(n, 2.0)
    rng = np.random.default_rng(n)
    coord = rng.uniform(0.6, 3.0, (64, n)) * rng.choice([-1.0, 1.0], (64, n))
    want = section_from_germ(m, constant_field(np.eye(2 << n)[0], n)).value_at(ManifoldPoint(1, coord))
    w = _lift_weight(m, coord)
    assert w.shape == want.shape and np.array_equal(w, want)
    if kind is plane_sphere:
        assert np.array_equal(w, np.tile(np.eye(2 << n)[0], (64, 1)))


def test_plemelj_needs_two_nodes(m2):
    """With one node the kernel matrix is empty and g_minus vanishes for any
    data, so fewer than two nodes are refused, also when asked for 0. The
    half rule on the even nodes must keep two, and an offset rule needs an
    even count, so N must be a multiple of 4 (N = 6 or 66 leaves the half an
    odd count). The data is well formed, so only the node count can be refused."""
    data = lambda p: np.tile(np.eye(8)[0], (len(p.coord), 1))
    for order, nodes in ((1, None), (64, 1), (64, 0), (2, None), (64, 63), (64, 6), (66, None)):
        s = _surf(m2, 3.0, order)
        with pytest.raises(SurfaceError, match="nodes"):
            plemelj_projections(m2, s, data, n_nodes=nodes)


def test_plemelj_rejects_per_point_data(m2):
    """The data callable receives the whole node point array at once."""
    with pytest.raises(SurfaceError):
        plemelj_projections(m2, _surf(m2, 3.0, 16), lambda p: Multivector(3, np.eye(8)[0]))


def test_plemelj_shares_its_lift_weight_only_while_it_reads_its_data(m2):
    """A section as the data reads the W that plemelj_projections evaluated
    at its nodes. Once the splitting returns, or its data raises, the section
    at those nodes lifts afresh, so a control patched in later reaches it."""
    sec, nodes = section_from_germ(m2, _germ(m2)), []

    def data(p, fail=False):
        nodes.append(p)
        if fail:
            raise ValueError("data")
        return sec.value_at(p)

    shared = plemelj_projections(m2, _surf(m2, 3.0, 16), data).g
    assert np.array_equal(np.array([v.coeffs for v in shared]), sec.value_at(nodes[-1]))
    with pytest.raises(ValueError, match="data"):
        plemelj_projections(m2, _surf(m2, 3.0, 16), functools.partial(data, fail=True))
    for p in nodes:
        with cli.patched([(*cli.CONTROLS["break_weight"], 1)]):
            broken = sec.value_at(p)
        assert not np.allclose(broken, sec.value_at(p))


def test_plemelj_requires_n2(m3):
    s = _surf(m3, 3.0, 8)
    with pytest.raises(SurfaceError):
        plemelj_projections(m3, s, lambda p: Multivector(4, np.eye(16)[0]))


def test_degenerate_frame_and_germ_domain_errors_name_the_point(m2):
    """A node whose tangent vanishes, or that sits on the germ's pole, is
    named in the error."""
    circle = chart_circle(m2, 1, np.zeros(2), 3.0, 8)
    # the tangent vanishes for parameters t <= 1
    jac = lambda t: circle.param_jac(t) * (t[..., None] > 1.0)
    flat_top = dataclasses.replace(circle, param_jac=jac)
    t = np.array([[2.0], [0.5], [0.25]])
    node = str(circle.param(t)[1].tolist())
    with pytest.raises(SurfaceError, match=re.escape(f"node {node}")):
        node_geometry(m2, flat_top, t)
    f = g_translate(np.array([3.0, 0.0]))
    with pytest.raises(DomainError, match=r"point \[3\.0, 0\.0\] outside"):
        f.values(np.array([[1.0, 1.0], [3.0, 0.0]]))
