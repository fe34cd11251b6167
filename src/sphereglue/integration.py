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
from typing import Callable, Sequence

import numpy as np

from .algebra import Multivector, clifford_group_inverse
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
    param_jac optionally supplies the analytic (n x n-1) Jacobian, otherwise a
    fourth-order finite difference is used.
    """

    chart: int
    bounds: tuple[tuple[float, float], ...]
    param: Callable[[np.ndarray], np.ndarray]
    param_jac: Callable[[np.ndarray], np.ndarray] | None = None
    orientation: float = 1.0


@dataclass(frozen=True)
class Hypersurface:
    patches: tuple[SurfacePatch, ...]
    quad_order: int
    interior_point: ManifoldPoint | None = None
    closed: bool = False


@dataclass(frozen=True)
class QuadratureReport:
    value: Multivector
    estimated_error: float
    nodes_used: int


def _param_jacobian(patch: SurfacePatch, t: np.ndarray) -> np.ndarray:
    if patch.param_jac is not None:
        return np.asarray(patch.param_jac(t), dtype=np.float64)
    # fourth-order central differences
    d = t.size
    x0 = patch.param(t)
    jac = np.zeros((np.asarray(x0).size, d))
    h = 1e-3
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        jac[:, j] = (
            8.0 * (patch.param(t + e) - patch.param(t - e))
            - (patch.param(t + 2 * e) - patch.param(t - 2 * e))
        ) / (12.0 * h)
    return jac


def _generalized_cross(rows: np.ndarray) -> np.ndarray:
    """Vector in R^m orthogonal to the m-1 given rows (cofactor expansion)."""
    m = rows.shape[1]
    out = np.zeros(m)
    for i in range(m):
        sub = np.delete(rows, i, axis=1)
        out[i] = (-1.0) ** i * np.linalg.det(sub)
    return out


def _patch_geometry(m: GluedManifold, patch: SurfacePatch, t: np.ndarray):
    """Embedded point, sqrt-Gram weight, and the normal fixed by the patch
    orientation (not yet referenced to an interior point)."""
    x = patch.param(t)
    pt = ManifoldPoint(patch.chart, x)
    u = embed(m, pt)
    jac_chart = _param_jacobian(patch, t)
    ju = embed_jacobian(m, patch.chart, np.asarray(x, dtype=np.float64)) @ jac_chart
    gram = ju.T @ ju
    w = float(np.sqrt(max(np.linalg.det(gram), 0.0)))
    # the normal is orthogonal to the surface tangents and to the sphere
    # radius (or the plane's vertical axis for a plane chart)
    if m.chart(patch.chart).has_sphere:
        axis = u
    else:
        axis = np.zeros(m.n + 1)
        axis[m.n] = 1.0
    rows = np.column_stack([axis] + [ju[:, j] for j in range(ju.shape[1])])
    nrm = _generalized_cross(rows.T)
    norm = np.linalg.norm(nrm)
    if norm <= 1e-13:
        raise SurfaceError("degenerate tangent frame at a quadrature node")
    nrm = patch.orientation * nrm / norm
    return pt, u, w, nrm, jac_chart


def _interior_in_chart(m: GluedManifold, s: Hypersurface, chart: int) -> np.ndarray:
    p = s.interior_point
    if p.chart == chart:
        coord = p.coord
    else:
        coord = apply_transition(m, p.coord)
    if is_infinity(coord):
        raise SurfaceError("interior point maps to infinity in the surface chart")
    return np.asarray(coord, dtype=np.float64)


def _outward_sign(m, s, patch, t, x, nrm, jac_chart) -> float:
    """Sign making the given embedded normal point away from the bounded
    subdomain: decided in flat chart coordinates (valid for surfaces that are
    star-shaped around the interior point) and carried to the embedding via
    the conformal chart map, which preserves orthogonality."""
    if s.interior_point is None:
        return 1.0
    nc = _generalized_cross(jac_chart.T)
    ncn = np.linalg.norm(nc)
    if ncn <= 1e-13:
        raise SurfaceError("degenerate chart tangent frame")
    nc = nc / ncn
    p = _interior_in_chart(m, s, patch.chart)
    chart_out = 1.0 if nc @ (np.asarray(x) - p) > 0 else -1.0
    nc_embedded = embed_jacobian(m, patch.chart, np.asarray(x, dtype=np.float64)) @ nc
    carry = 1.0 if nc_embedded @ nrm > 0 else -1.0
    return chart_out * carry


def outward_normal(m: GluedManifold, s: Hypersurface, patch: SurfacePatch, t: np.ndarray) -> np.ndarray:
    """Unit normal at the surface point, tangent to the embedded manifold,
    orthogonal to the surface tangents, pointing away from the bounded
    subdomain (s.interior_point when given, else the patch orientation)."""
    pt, u, _, nrm, jac_chart = _patch_geometry(m, patch, t)
    return _outward_sign(m, s, patch, t, pt.coord, nrm, jac_chart) * nrm


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


def _oriented_geometry(m, s, patch, t):
    pt, u, w, nrm, jac_chart = _patch_geometry(m, patch, t)
    sign = _outward_sign(m, s, patch, t, pt.coord, nrm, jac_chart)
    return pt, u, w, sign * nrm


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
            pt, u, w, nrm = _oriented_geometry(m, s, patch, t)
            val = integrand(pt, u, nrm)
            contrib = val * (w * wflat[i])
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
    nodes_param: np.ndarray
    points: tuple[ManifoldPoint, ...]
    g_plus: tuple[Multivector, ...]
    g_minus: tuple[Multivector, ...]
    g: tuple[Multivector, ...]


def plemelj_projections(
    m: GluedManifold,
    s: Hypersurface,
    g: Sequence[Multivector] | Callable[[ManifoldPoint], Multivector],
    n_nodes: int | None = None,
) -> PlemeljResult:
    """Discrete Hardy-space splitting g = g_plus + g_minus on a smooth closed
    curve (n = 2), with g_plus the approximate trace of the interior Cauchy
    extension.

    The singular integral is regularized by subtracting, per target node, the
    constant-germ holomorphic section matching g there: its principal value is
    known exactly from the jump relation, and the remaining integrand is
    smooth and periodic, so the trapezoid rule is spectrally accurate once the
    removable diagonal value is filled in from the FFT derivative of the data.
    """
    if m.n != 2:
        raise SurfaceError("Plemelj projections are implemented for n = 2 curves")
    if not s.closed or len(s.patches) != 1:
        raise SurfaceError("need a closed single-patch curve")
    patch = s.patches[0]
    (a, b) = patch.bounds[0]
    period = b - a
    nn = n_nodes or s.quad_order
    h = period / nn
    ts = a + (np.arange(nn) + 0.5) * h
    dim = m.n + 1

    pts, us, wg, nrms, tangents = [], [], [], [], []
    for t in ts:
        pt, u, w, nrm, jac_chart = _patch_geometry(m, patch, np.array([t]))
        sign = _outward_sign(m, s, patch, np.array([t]), pt.coord, nrm, jac_chart)
        ju = embed_jacobian(m, patch.chart, np.asarray(pt.coord, dtype=np.float64)) @ jac_chart
        pts.append(pt)
        us.append(u)
        wg.append(w)
        nrms.append(sign * nrm)
        tangents.append(ju[:, 0])

    if callable(g):
        gvals = [g(p) for p in pts]
    else:
        gvals = list(g)
        if len(gvals) != nn:
            raise SurfaceError("boundary data length must match the node count")

    # node values of the unit-germ section: W_j c is the constant-germ
    # section with germ c, evaluated at node j
    unit_sec = section_from_germ(m, constant_field(Multivector.scalar(1.0, dim), m.n))
    wsec = [unit_sec.value_at(p) for p in pts]
    winv = [clifford_group_inverse(wv) for wv in wsec]
    nhat = [Multivector.vector(REPRODUCING_NORMAL_SIGN * nr, dim) for nr in nrms]

    freqs = np.fft.fftfreq(nn, d=1.0 / nn) * (2.0 * np.pi / period)
    if nn % 2 == 0:
        freqs[nn // 2] = 0.0

    wn = unit_sphere_area(m.n)
    gp, gm = [], []
    for i in range(nn):
        ci = winv[i] * gvals[i]
        dvals = [gvals[j] - wsec[j] * ci for j in range(nn)]
        coeff = np.array([d.coeffs for d in dvals])
        dprime = np.real(np.fft.ifft(1j * freqs[:, None] * np.fft.fft(coeff, axis=0), axis=0))
        acc = Multivector.zero(dim)
        for j in range(nn):
            if j == i:
                # removable-singularity limit: G ~ u'/(s |u'|^2), data ~ s d'
                tvec = Multivector.vector(tangents[i] / wg[i] ** 2, dim)
                acc = acc + tvec * nhat[i] * Multivector(dim, dprime[i]) * wg[i]
                continue
            kv = kernel_CM(m, pts[j], pts[i])
            acc = acc + kv.value * nhat[j] * dvals[j] * wg[j]
        cs = acc * (2.0 * h / wn) + gvals[i]
        gp.append((gvals[i] + cs) * 0.5)
        gm.append((gvals[i] - cs) * 0.5)
    return PlemeljResult(ts, tuple(pts), tuple(gp), tuple(gm), tuple(gvals))


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
