"""Surface quadrature on glued manifolds, the Cauchy integral formula and
discrete Plemelj (Hardy) projections.

Quadrature runs on the embedded picture (sphere embedding for sphere charts,
the coordinate plane otherwise): Gauss-Legendre product rules per patch with
the surface measure taken from the Gram determinant of the embedded
parametrization. Normals are unit vectors tangent to the embedded manifold
and orthogonal to the surface, oriented outward from the bounded subdomain.

Sign convention: with e_j^2 = -1 the reproducing pairing uses the inward
normal; cauchy_integral applies REPRODUCING_NORMAL_SIGN to the outward
normal so that the formula returns +f(y).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi
from itertools import permutations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import Multivector, clifford_group_inverse, gp_batch
from .fields import CliffordField, constant_field
from .kernel import kernel_CM
from .manifold import (
    GluedManifold,
    ManifoldError,
    ManifoldPoint,
    apply_transition,
    chart_map,
    chart_transfer,
    classify,
    embed,
    embed_jacobian,
)
from .moebius import inverse, is_infinity, weight_J

REPRODUCING_NORMAL_SIGN = -1.0


class SurfaceError(ValueError):
    pass


def unit_sphere_area(n: int) -> float:
    """omega_n: surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


@dataclass(frozen=True)
class SurfacePatch:
    """One parametrized piece of a hypersurface, in a single chart.

    param maps a parameter point (length n-1) to chart coordinates (length n);
    param_jac supplies its analytic (n x n-1) Jacobian.
    """

    chart: int
    bounds: tuple[tuple[float, float], ...]
    param: Callable[[np.ndarray], np.ndarray]
    param_jac: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Hypersurface:
    patches: tuple[SurfacePatch, ...]
    quad_order: int
    interior_point: ManifoldPoint
    closed: bool = False


@dataclass(frozen=True)
class QuadratureReport:
    value: Multivector
    estimated_error: float
    nodes_used: int


class NodeGeometry(NamedTuple):
    """What a quadrature node needs: the chart point, its embedding, the
    sqrt-Gram weight, the outward unit normal and the embedded tangents (one
    column per surface parameter)."""

    point: ManifoldPoint
    embedded: np.ndarray
    weight: float
    normal: np.ndarray
    tangents: np.ndarray


def _generalized_cross(rows: np.ndarray) -> np.ndarray:
    """Vector in R^m orthogonal to the m-1 given rows (cofactor expansion)."""
    m = rows.shape[1]
    out = np.zeros(m)
    for i in range(m):
        sub = np.delete(rows, i, axis=1)
        out[i] = (-1.0) ** i * np.linalg.det(sub)
    return out


def _interior_in_chart(m: GluedManifold, s: Hypersurface, chart: int) -> np.ndarray:
    p = s.interior_point
    if p.chart == chart:
        coord = p.coord
    else:
        coord = apply_transition(m, p.coord)
    if is_infinity(coord):
        raise SurfaceError("interior point maps to infinity in the surface chart")
    return np.asarray(coord, dtype=np.float64)


def node_geometry(m: GluedManifold, s: Hypersurface, patch: SurfacePatch, t: np.ndarray) -> NodeGeometry:
    """Geometry of the surface node at parameter t.

    The chart normal is oriented away from the bounded subdomain in flat
    chart coordinates (valid for surfaces star-shaped around the interior
    point). The chart maps are conformal, so embed_jacobian carries it to a
    vector tangent to the embedded manifold and orthogonal to the embedded
    surface tangents: the embedded normal.
    """
    x = np.asarray(patch.param(t), dtype=np.float64)
    pt = ManifoldPoint(patch.chart, x)
    jac_chart = np.asarray(patch.param_jac(t), dtype=np.float64)
    nc = _generalized_cross(jac_chart.T)
    if np.linalg.norm(nc) <= 1e-13:
        raise SurfaceError("degenerate tangent frame at a quadrature node")
    if nc @ (x - _interior_in_chart(m, s, patch.chart)) <= 0:
        nc = -nc
    ejac = embed_jacobian(m, patch.chart, x)
    tangents = ejac @ jac_chart
    weight = float(np.sqrt(max(np.linalg.det(tangents.T @ tangents), 0.0)))
    normal = ejac @ nc
    return NodeGeometry(pt, embed(m, pt), weight, normal / np.linalg.norm(normal), tangents)


def _gauss_nodes(bounds, order):
    xs, ws = np.polynomial.legendre.leggauss(order)
    axes = []
    for a, b in bounds:
        axes.append(((b - a) / 2.0 * xs + (a + b) / 2.0, (b - a) / 2.0 * ws))
    return axes


def surface_quadrature(
    m: GluedManifold,
    s: Hypersurface,
    integrand: Callable[[ManifoldPoint, np.ndarray, np.ndarray], Multivector | float],
    order: int | None = None,
) -> QuadratureReport:
    """Integrate over the hypersurface; the integrand receives the manifold
    point, its embedding, and the outward unit normal. Two refinement levels
    give the error estimate."""
    order = order or s.quad_order
    coarse = max(order // 2, 1)
    v_full, nodes = _quad_once(m, s, integrand, order)
    v_half, _ = _quad_once(m, s, integrand, coarse)
    if isinstance(v_full, Multivector):
        err = (v_full - v_half).norm()
    else:
        err = abs(v_full - v_half)
        v_full = Multivector.scalar(v_full, m.n + 1)
    return QuadratureReport(v_full, err, nodes)


def _quad_once(m, s, integrand, order):
    total = None
    nodes = 0
    for patch in s.patches:
        axes = _gauss_nodes(patch.bounds, order)
        grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
        flat = [g.ravel() for g in grids]
        wflat = np.prod([w.ravel() for w in wgrids], axis=0)
        for i in range(flat[0].size):
            t = np.array([f[i] for f in flat])
            geo = node_geometry(m, s, patch, t)
            val = integrand(geo.point, geo.embedded, geo.normal)
            contrib = val * (geo.weight * wflat[i])
            total = contrib if total is None else total + contrib
            nodes += 1
    return total, nodes


# -- sections ---------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A left Clifford holomorphic section in per-chart representatives.

    rep(chart, coord) returns the Cl_{n+1} value of the representative of the
    section at the given chart coordinate; on the neck the two representatives
    are related by the conformal weight of the chart transfer map.
    """

    manifold: GluedManifold
    rep: Callable[[int, np.ndarray], Multivector]

    def value_at(self, p: ManifoldPoint) -> Multivector:
        return self.rep(p.chart, p.coord)


def section_from_germ(m: GluedManifold, germ: CliffordField) -> Section:
    """Build the section whose chart-1 pullback to the coordinate plane is
    the given field (values in Cl_{n+1}).

    Chart 1: the germ lifted with the weight of the inverse chart-1 map.
    Chart 2: the additional transfer-weighted pullback through the continued
    transition, so the two representatives agree on the neck under the
    bundle identification.
    """
    if germ.dim_alg != m.n + 1:
        raise ValueError("germ must take values in Cl_{n+1}")
    chart1_inv = inverse(chart_map(m, 1))
    trans21 = chart_transfer(m, 1, 2)  # sphere-2 -> sphere-1 picture

    def rep(chart: int, coord) -> Multivector:
        if chart == 1:
            u = embed(m, ManifoldPoint(1, coord))
            if m.chart(1).has_sphere:
                return weight_J(chart1_inv, u) * germ(coord)
            return germ(coord)
        y1 = apply_transition(m, coord)
        u2 = embed(m, ManifoldPoint(2, coord))
        return weight_J(trans21, u2) * rep(1, y1)

    return Section(m, rep)


def cauchy_integral(
    m: GluedManifold,
    s: Hypersurface,
    f: Section,
    y: ManifoldPoint,
    order: int | None = None,
    normal_sign: float = REPRODUCING_NORMAL_SIGN,
) -> QuadratureReport:
    """(1/omega_n) * integral of C_M(x, y) n(x) f(x) over S; converges to the
    representative f(y) in y's chart for y inside the bounded subdomain.

    normal_sign is a falsification control; leave it at the default for
    verification runs.
    """
    if classify(m, y) == "inadmissible":
        raise ManifoldError("evaluation point is inadmissible")
    wn = unit_sphere_area(m.n)

    def integrand(pt: ManifoldPoint, u: np.ndarray, nrm: np.ndarray) -> Multivector:
        kv = kernel_CM(m, pt, y)
        n_mv = Multivector.vector(normal_sign * nrm, m.n + 1)
        return kv.value * n_mv * f.value_at(pt)

    rep = surface_quadrature(m, s, integrand, order)
    return QuadratureReport(rep.value / wn, rep.estimated_error / wn, rep.nodes_used)


# -- Plemelj / Hardy projections -------------------------------------------


@dataclass(frozen=True)
class PlemeljResult:
    points: tuple[ManifoldPoint, ...]
    g_plus: tuple[Multivector, ...]
    g_minus: tuple[Multivector, ...]
    g: tuple[Multivector, ...]


def _vectors(rows: np.ndarray, dim: int) -> np.ndarray:
    """Coefficient arrays of the grade-1 elements with the given components."""
    out = np.zeros((rows.shape[0], 1 << dim))
    out[:, 1 << np.arange(rows.shape[1])] = rows
    return out


def _fft_derivative(values: np.ndarray, period: float) -> np.ndarray:
    """Spectral derivative along axis 0 of equispaced periodic samples."""
    nn = values.shape[0]
    freqs = np.fft.fftfreq(nn, d=1.0 / nn) * (2.0 * np.pi / period)
    if nn % 2 == 0:
        freqs[nn // 2] = 0.0
    return np.real(np.fft.ifft(1j * freqs[:, None] * np.fft.fft(values, axis=0), axis=0))


def plemelj_projections(
    m: GluedManifold,
    s: Hypersurface,
    g: Sequence[Multivector] | Callable[[ManifoldPoint], Multivector],
    n_nodes: int | None = None,
) -> PlemeljResult:
    """Discrete Hardy-space splitting g = g_plus + g_minus on a smooth closed
    curve (n = 2), with g_plus the approximate trace of the interior Cauchy
    extension: P_pm = (I pm C_S) / 2.

    The singular integral C_S is regularized at each target node i by
    subtracting the constant-germ section W c_i that matches g there
    (c_i = W_i^{-1} g_i): its principal value is known exactly from the jump
    relation, and the remaining integrand is smooth and periodic, so the
    trapezoid rule is spectrally accurate once the removable diagonal value
    is filled in from the FFT derivative of the data. The regularized sum is
    linear in c_i, so every target shares one kernel matrix and two FFT
    derivatives:

        C_S g = g + (2h / omega_n) [A g - (A W) c + B (g' - W' c)]

    with A_ij = C_M(x_j, x_i) n_j |u'_j| off the diagonal and zero on it, and
    B_i = u'_i n_i / |u'_i| the diagonal limit (G ~ u'/(s |u'|^2), data ~ s d').
    """
    if m.n != 2:
        raise SurfaceError("Plemelj projections are implemented for n = 2 curves")
    if not s.closed or len(s.patches) != 1:
        raise SurfaceError("need a closed single-patch curve")
    patch = s.patches[0]
    (a, b) = patch.bounds[0]
    period = b - a
    nn = s.quad_order if n_nodes is None else n_nodes
    if nn < 2:
        raise SurfaceError(f"Plemelj projections need at least 2 nodes, got {nn}")
    h = period / nn
    dim = m.n + 1
    geos = [node_geometry(m, s, patch, np.array([a + (i + 0.5) * h])) for i in range(nn)]
    pts = [geo.point for geo in geos]

    if callable(g):
        gvals = [g(p) for p in pts]
    else:
        gvals = list(g)
        if len(gvals) != nn:
            raise SurfaceError("boundary data length must match the node count")

    # W_j c is the constant-germ section with germ c, evaluated at node j
    unit_sec = section_from_germ(m, constant_field(Multivector.scalar(1.0, dim), m.n))
    wsec = [unit_sec.value_at(p) for p in pts]
    gc = np.array([v.coeffs for v in gvals])
    wc = np.array([v.coeffs for v in wsec])
    c = gp_batch(dim, np.array([clifford_group_inverse(v).coeffs for v in wsec]), gc)

    weights = np.array([geo.weight for geo in geos])
    normals = np.array([REPRODUCING_NORMAL_SIGN * geo.normal for geo in geos])
    nw = _vectors(normals * weights[:, None], dim)
    kern = np.zeros((nn, nn, 1 << dim))
    for i, j in permutations(range(nn), 2):
        kern[i, j] = kernel_CM(m, pts[j], pts[i]).value.coeffs
    amat = gp_batch(dim, kern, nw[None])
    tvec = _vectors(np.array([geo.tangents[:, 0] for geo in geos]) / weights[:, None] ** 2, dim)
    bvec = gp_batch(dim, tvec, nw)

    a_g = gp_batch(dim, amat, gc[None]).sum(axis=1)
    a_w = gp_batch(dim, amat, wc[None]).sum(axis=1)
    d_prime = _fft_derivative(gc, period) - gp_batch(dim, _fft_derivative(wc, period), c)
    cs = gc + (2.0 * h / unit_sphere_area(m.n)) * (
        a_g - gp_batch(dim, a_w, c) + gp_batch(dim, bvec, d_prime)
    )
    g_plus = tuple(Multivector(dim, v) for v in (gc + cs) * 0.5)
    g_minus = tuple(Multivector(dim, v) for v in (gc - cs) * 0.5)
    return PlemeljResult(tuple(pts), g_plus, g_minus, tuple(gvals))


# -- built-in surface families ----------------------------------------------


def chart_circle(
    m: GluedManifold,
    chart: int,
    center: np.ndarray,
    radius: float,
    quad_order: int,
    interior: ManifoldPoint | None = None,
) -> Hypersurface:
    """Circle in a chart coordinate plane (n = 2)."""
    if m.n != 2:
        raise SurfaceError("chart_circle requires n = 2")
    center = np.asarray(center, dtype=np.float64)

    def param(t):
        return center + radius * np.array([np.cos(t[0]), np.sin(t[0])])

    def jac(t):
        return radius * np.array([[-np.sin(t[0])], [np.cos(t[0])]])

    patch = SurfacePatch(chart, ((0.0, 2.0 * np.pi),), param, jac)
    if interior is None:
        interior = ManifoldPoint(chart, center)
    return Hypersurface((patch,), quad_order, interior, closed=True)


def chart_sphere(
    m: GluedManifold,
    chart: int,
    center: np.ndarray,
    radius: float,
    quad_order: int,
    interior: ManifoldPoint | None = None,
) -> Hypersurface:
    """Round 2-sphere in a chart coordinate plane (n = 3)."""
    if m.n != 3:
        raise SurfaceError("chart_sphere requires n = 3")
    center = np.asarray(center, dtype=np.float64)

    def param(t):
        th, ph = t
        return center + radius * np.array(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )

    def jac(t):
        th, ph = t
        return radius * np.array(
            [
                [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
                [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
                [-np.sin(th), 0.0],
            ]
        )

    eps = 1e-9  # keep clear of the polar parametrization degeneracy
    patch = SurfacePatch(chart, ((eps, np.pi - eps), (0.0, 2.0 * np.pi)), param, jac)
    if interior is None:
        interior = ManifoldPoint(chart, center)
    return Hypersurface((patch,), quad_order, interior, closed=True)
