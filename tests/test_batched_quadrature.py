"""The array path of the Cauchy integral against a per-node reference.

cauchy_integral evaluates node geometry, sections and the kernel over whole
node arrays. The reference below rebuilds the same quadrature one node at a
time from closed forms (the Gauss-Legendre rule, the chart parametrization,
the Cayley embedding and its Jacobian, the Vahlen weight formula) and
Multivector products, and the checks of the one-point path must still fire
for every node.
"""
import numpy as np
import pytest

from sphereglue.algebra import Multivector, reversion, vectors
from sphereglue.fields import DomainError, g_translate
from sphereglue.integration import (
    cauchy_integral,
    chart_circle,
    chart_sphere,
    section_from_germ,
    unit_sphere_area,
)
from sphereglue.kernel import DiagonalError
from sphereglue.manifold import (
    ManifoldError,
    ManifoldPoint,
    chart_map,
    chart_transfer,
    plane_sphere,
    two_spheres,
)
from sphereglue.moebius import inverse

MANIFOLDS = {
    "two_spheres": lambda n: two_spheres(n, 2.0),
    "scale1": lambda n: two_spheres(n, 2.0, (1.5, 1.0)),
    "plane_sphere": lambda n: plane_sphere(n, 2.0),
}
TARGETS = {
    "same-chart": (1, [1.2, 0.4, 0.1]),
    "overlap-rep": (2, [1.0, 0.5, 0.1]),
    "cross-glue": (2, [2.5, 1.0, 0.2]),
}
ORDER = {2: 32, 3: 8}
RADIUS = 3.0


def _pole(n):
    return np.eye(n)[0] * 4.0


def _embed(m, chart, x):
    """Closed-form embedding and its Jacobian for one chart point."""
    n = x.size
    ch = m.chart(chart)
    if not ch.has_sphere:
        return np.append(x, 0.0), np.eye(n + 1, n)
    rho2 = x @ x
    u = np.append(-2.0 * x, rho2 - 1.0) / (rho2 + 1.0)
    jac = np.vstack([-2.0 * (rho2 + 1.0) * np.eye(n) + 4.0 * np.outer(x, x), 4.0 * x]) / (rho2 + 1.0) ** 2
    return ch.scale * u, ch.scale * jac


def _vector(v, n):
    """The grade-1 element of Cl_{n+1} with components v."""
    return Multivector(n + 1, vectors(v, n + 1))


def _weight(psi, u, n):
    """The conformal weight ~(cu+d)/||cu+d||^n of the normalized matrix."""
    nu = abs(psi.pseudo_determinant) ** 0.5
    c, d = (Multivector(n + 1, v) for v in psi.coeffs[1])
    den = (c * _vector(u, n) + d).coeffs / nu
    return Multivector(n + 1, reversion(n + 1, den) / np.linalg.norm(den) ** n)


def _kernel_G(v, n):
    return _vector(v / np.linalg.norm(v) ** n, n)


def _germ(x):
    v = x - _pole(x.size)
    return _vector(v / np.linalg.norm(v) ** x.size, x.size)


def _section_chart1(m, x):
    if not m.chart(1).has_sphere:
        return _germ(x)
    return _weight(inverse(chart_map(m, 1)), _embed(m, 1, x)[0], x.size) * _germ(x)


def _nodes(n, order):
    """Parameter nodes, their weights and the chart coordinates, tangents
    and outward chart normals of the origin-centred contour."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    if n == 2:
        ts, tw = np.pi * xs + np.pi, np.pi * ws
        for t, w in zip(ts, tw):
            d = np.array([np.cos(t), np.sin(t)])
            yield w, RADIUS * d, RADIUS * np.array([[-np.sin(t)], [np.cos(t)]]), d
        return
    eps = 1e-9
    half = (np.pi - 2 * eps) / 2.0
    for th, wth in zip(half * xs + np.pi / 2.0, half * ws):
        for ph, wph in zip(np.pi * xs + np.pi, np.pi * ws):
            d = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
            tan = RADIUS * np.array(
                [
                    [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
                    [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
                    [-np.sin(th), 0.0],
                ]
            )
            yield wth * wph, RADIUS * d, tan, d


def _reference(m, y_chart, y_coord):
    """(1/omega_n) sum_i w_i C_M(x_i, y) n_i f(x_i), node by node."""
    n = m.n
    if y_chart == 1:
        y1, weight = y_coord, Multivector(n + 1, np.eye(2 ** (n + 1))[0])
    else:
        y1 = y_coord / (y_coord @ y_coord)
        weight = _weight(chart_transfer(m, 1, 2), _embed(m, 2, y_coord)[0], n)
    u_y = _embed(m, 1, y1)[0]
    total = np.zeros(2 ** (n + 1))
    for w, x, tan, d in _nodes(n, ORDER[n]):
        u, jac = _embed(m, 1, x)
        emb_tan = jac @ tan
        area = np.sqrt(np.linalg.det(emb_tan.T @ emb_tan))
        normal = jac @ d
        normal = _vector(-normal / np.linalg.norm(normal), n)
        kern = weight * _kernel_G(u - u_y, n)
        total = total + (kern * normal * _section_chart1(m, x)).coeffs * (area * w)
    return Multivector(n + 1, total / unit_sphere_area(n))


def _surface(m):
    interior = ManifoldPoint(1, np.eye(m.n)[0] * 0.6)
    if m.n == 2:
        return chart_circle(m, 1, np.zeros(2), RADIUS, ORDER[2], interior=interior)
    return chart_sphere(m, 1, np.zeros(3), RADIUS, ORDER[3], interior=interior)


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("kind", sorted(MANIFOLDS))
@pytest.mark.parametrize("n", [2, 3])
def test_batched_integral_matches_node_sum(n, kind, target):
    m = MANIFOLDS[kind](n)
    chart, coord = TARGETS[target]
    y = np.array(coord[:n])
    sec = section_from_germ(m, g_translate(_pole(n), n=n, dim_alg=n + 1))
    got = cauchy_integral(m, _surface(m), sec, ManifoldPoint(chart, y)).value
    ref = _reference(m, chart, y)
    assert (got - ref).norm() <= 1e-13 * ref.norm()


def _neck_contour(m2):
    """A chart-1 circle inside the neck and one of its Gauss nodes."""
    s = chart_circle(m2, 1, np.zeros(2), 1.5, 16)
    t0 = np.pi * np.polynomial.legendre.leggauss(16)[0][3] + np.pi
    return s, s.param(np.array([[t0]]))[0]


def test_diagonal_error_same_chart_and_through_neck():
    m2 = two_spheres(2, 2.0)
    sec = section_from_germ(m2, g_translate(_pole(2), n=2, dim_alg=3))
    s, x0 = _neck_contour(m2)
    with pytest.raises(DiagonalError):
        cauchy_integral(m2, s, sec, ManifoldPoint(1, x0))
    with pytest.raises(DiagonalError):
        cauchy_integral(m2, s, sec, ManifoldPoint(2, x0 / (x0 @ x0)))


def test_inadmissible_node_or_target_raises():
    m2 = two_spheres(2, 2.0)
    sec = section_from_germ(m2, g_translate(_pole(2), n=2, dim_alg=3))
    y = ManifoldPoint(1, np.array([1.2, 0.4]))
    inside_hole = chart_circle(m2, 1, np.zeros(2), 0.3, 16)
    with pytest.raises(ManifoldError):
        cauchy_integral(m2, inside_hole, sec, y)
    with pytest.raises(ManifoldError):
        cauchy_integral(m2, _surface(m2), sec, ManifoldPoint(1, np.array([0.1, 0.0])))


def test_node_on_germ_pole_raises_domain_error():
    m2 = two_spheres(2, 2.0)
    s, x0 = _neck_contour(m2)
    sec = section_from_germ(m2, g_translate(x0, n=2, dim_alg=3))
    with pytest.raises(DomainError):
        cauchy_integral(m2, s, sec, ManifoldPoint(1, np.array([2.5, 1.0])))
