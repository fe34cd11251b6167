"""Surface quadrature on glued manifolds, the Cauchy integral formula and
discrete Plemelj (Hardy) projections.

Quadrature runs on the embedded picture (sphere embedding for sphere charts,
the coordinate plane otherwise): Gauss-Legendre product rules with the
surface measure lambda^(n-1) |nu| of the embedded parametrization, where nu
is the chart normal and lambda the conformal factor of the chart embedding.
Normals are unit vectors tangent to the embedded manifold and orthogonal to
the surface, oriented outward from the bounded subdomain.

Everything is evaluated over whole node arrays: a surface's parametrization,
node geometry, sections, germs and the kernel take arrays of shape (N, ...)
and return coefficient arrays (N, 2^(n+1)), which the rule sums at once.
Every check of the one-point path (diagonal, admissibility, germ domain,
degenerate frame, singular weight) applies to every node and node pair.
Both suites apply one boundary operator, _blade_apply: sum_b e_b (K^b @ h)
for the real blade matrices K^b of G(E(x_j) - E(y_i)) and node rows
h_j = w_j n_j f_j: in cauchy_integrals to one target and the rows of every
section at once, one block of stacked nodes per order (then J_y on the left
for a target in another chart), and over all node pairs in
plemelj_projections.

A section is data, its manifold and its germ; one function,
representatives, evaluates the representatives of any number of sections
at a point array, with each weight evaluated once for all of them.

Sign convention: with e_j^2 = -1 the reproducing pairing uses the inward
normal; both quadratures apply REPRODUCING_NORMAL_SIGN to the outward
normal so that the formula returns +f(y). They read it at call time, so
the CLI's break_normal control negates it for the run of a suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gamma, pi
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import kernel
from .algebra import Multivector, _product_tables, clifford_group_inverse, gp_batch, row_norms, vectors
from .fields import CliffordField
from .kernel import _kernel_pairs
from .manifold import (
    INADMISSIBLE,
    GluedManifold,
    ManifoldError,
    ManifoldPoint,
    apply_transition,
    chart_map,
    classify,
    embed,
    embed_differential,
)
from .moebius import first_point, weight_J

REPRODUCING_NORMAL_SIGN = -1.0


class SurfaceError(ValueError):
    pass


def unit_sphere_area(n: int) -> float:
    """omega_n: surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


@dataclass(frozen=True)
class Hypersurface:
    """A hypersurface parametrized over one box in a single chart.

    param maps parameter arrays (N, n-1) to chart coordinates (N, n);
    param_jac supplies their analytic Jacobians (N, n, n-1).
    """

    chart: int
    bounds: tuple[tuple[float, float], ...]
    param: Callable[[np.ndarray], np.ndarray]
    param_jac: Callable[[np.ndarray], np.ndarray]
    quad_order: int
    interior_point: ManifoldPoint
    closed: bool = False


@dataclass(frozen=True)
class QuadratureReport:
    value: Multivector
    estimated_error: float
    nodes_used: int


class NodeGeometry(NamedTuple):
    """What the nodes of a surface need, one row per node: the chart point
    array, the surface-measure weights (N,) and the outward unit normals
    (N, n+1)."""

    point: ManifoldPoint
    weight: np.ndarray
    normal: np.ndarray


def node_geometry(m: GluedManifold, s: Hypersurface, t: np.ndarray) -> NodeGeometry:
    """Geometry of the surface nodes at parameters t of shape (N, n-1).

    The chart normal nu is the rotation (u_1, -u_0) of the parameter tangent
    u at n = 2 and the cross product of the two parameter tangents at n = 3,
    oriented away from the bounded subdomain in flat chart coordinates (valid
    for surfaces star-shaped around the interior point). The chart embedding
    E is conformal with factor lambda, so e = E' nu is tangent to the
    embedded manifold and orthogonal to the embedded surface: the normal is
    e / |e|, and the weight lambda^(n-1) |nu| of the embedded surface measure
    is |e|^(n-1) / |nu|^(n-2).
    """
    x = np.asarray(s.param(t), dtype=np.float64)
    jac = np.asarray(s.param_jac(t), dtype=np.float64)
    u = jac[..., 0]
    nc = np.stack((u[..., 1], -u[..., 0]), axis=-1) if m.n == 2 else np.cross(u, jac[..., 1])
    nc_norm = row_norms(nc)
    if np.any(degenerate := nc_norm <= 1e-13):
        raise SurfaceError(f"degenerate tangent frame at the quadrature node {first_point(x, degenerate)}")
    p = s.interior_point
    with np.errstate(divide="ignore", invalid="ignore"):
        interior = p.coord if p.chart == s.chart else apply_transition(m, p.coord)
    if not np.isfinite(interior).all():
        where = f"{first_point(p.coord)} in chart {p.chart}"
        raise SurfaceError(f"interior point {where} has no finite coordinates in chart {s.chart}")
    inward = np.sum(nc * (x - interior), axis=-1) <= 0
    e = embed_differential(m, s.chart, x, np.where(inward[..., None], -nc, nc))
    e_norm = row_norms(e)
    weight = e_norm ** (m.n - 1) / nc_norm ** (m.n - 2)
    return NodeGeometry(ManifoldPoint(s.chart, x), weight, e / e_norm[..., None])


@lru_cache(maxsize=None)
def _gauss_nodes(bounds, order) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss nodes (N, len(bounds)) and weights (N,) on a box,
    computed once per (bounds, order), read-only."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    axes = [((b - a) / 2.0 * xs + (a + b) / 2.0, (b - a) / 2.0 * ws) for a, b in bounds]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    rule = np.stack([g.ravel() for g in grids], axis=-1), np.prod([w.ravel() for w in wgrids], axis=0)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _blade_apply(dim: int, kb: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_b e_b (K^b @ h) as (T, ..., 2^dim) for the real blade matrices kb
    (n+1, T, N) of a grade-1 kernel and the node rows h (N, ..., 2^dim)."""
    perm, sign = _product_tables(dim)
    kh = (kb @ h.reshape(len(h), -1)).reshape(kb.shape[:-1] + h.shape[1:])
    return sum(sign[1 << b] * kh[b][..., perm[1 << b]] for b in range(len(kb)))


# -- sections ---------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A left Clifford holomorphic section, given by its germ: its chart-1
    pullback to the coordinate plane, with values in Cl_{n+1}."""

    manifold: GluedManifold
    germ: CliffordField

    def value_at(self, p: ManifoldPoint):
        """The section at p: a Multivector for one point, the coefficient
        array (..., 2^(n+1)) for a point array."""
        v = representatives(self.manifold, p, [self.germ])[..., 0, :]
        return Multivector(self.manifold.n + 1, v) if v.ndim == 1 else v


def section_from_germ(m: GluedManifold, germ: CliffordField) -> Section:
    """The section of the germ, whose values must lie in Cl_{n+1}."""
    if germ.dim_alg != m.n + 1:
        raise ValueError("germ must take values in Cl_{n+1}")
    return Section(m, germ)


def representatives(m: GluedManifold, p: ManifoldPoint, germs: Sequence[CliffordField]) -> np.ndarray:
    """The representatives in p's chart of the sections of F germs, as
    (..., F, 2^(n+1)) for p's coordinates (..., n). Chart 1: W f, the germ
    lifted by the weight W of the inverse chart-1 map. Chart 2: J_y (W f),
    with W f read at the continued transition of p and J_y the weight of the
    chart transfer, so the representatives agree on the neck under the bundle
    identification. W and J_y are evaluated once for all germs; an
    inadmissible point raises ManifoldError before either is."""
    if np.any(bad := classify(m, p) == INADMISSIBLE):
        raise ManifoldError(f"section point {first_point(p.coord, bad)} in chart {p.chart} is inadmissible")
    coord = p.coord if p.chart == 1 else apply_transition(m, p.coord)
    values = np.stack([germ.values(coord) for germ in germs], axis=-2)
    rows = gp_batch(m.n + 1, _lift_weight(m, coord)[..., None, :], values)
    return rows if p.chart == 1 else gp_batch(m.n + 1, kernel._target_weight(m, 1, p)[..., None, :], rows)


def _lift_weight(m: GluedManifold, coord) -> np.ndarray:
    """W at chart-1 coordinates (..., n) as rows (..., 2^(n+1)): the weight of
    the inverse chart-1 map, which lifts a germ f to the chart-1
    representative W f of its section; the scalar 1 on a plane chart 1."""
    if m.chart(1).has_sphere:
        return weight_J(chart_map(m, -1), embed(m, ManifoldPoint(1, coord)))
    return np.broadcast_to(np.eye(2 << m.n)[0], np.shape(coord)[:-1] + (2 << m.n,))


class CauchyIntegrals(NamedTuple):
    """The Cauchy integrals of F sections at O orders for one target,
    indexed [section, order]: value (F, O, 2^(n+1)), estimated_error (F, O)
    and nodes_used (O,)."""

    value: np.ndarray
    estimated_error: np.ndarray
    nodes_used: np.ndarray


def cauchy_integrals(
    m: GluedManifold, s: Hypersurface, y: ManifoldPoint, sections: Sequence[Section], orders: Sequence[int]
) -> CauchyIntegrals:
    """(1/omega_n) * integral of C_M(x, y) n(x) f(x) over S for each section
    f and order; converges to the representative f(y) in y's chart for y
    inside the bounded subdomain. The error estimate is the distance to the
    half-order integral.

    The grid is one pass: the Gauss nodes of every order and its half,
    stacked as one contiguous block each, take one node_geometry call,
    h = w n f is formed for every section over the stack as (N, F, 2^(n+1))
    and G once over the stack; each block is applied by blades
    (_blade_apply), then J_y goes on the left once for a target in another
    chart."""
    if classify(m, y) == INADMISSIBLE:
        raise ManifoldError(f"evaluation point {first_point(y.coord)} in chart {y.chart} is inadmissible")
    dim = m.n + 1
    halves = [max(od // 2, 1) for od in orders]
    used = sorted({*orders, *halves})
    rules = [_gauss_nodes(s.bounds, od) for od in used]
    edges = np.cumsum([0] + [w.size for _, w in rules]).tolist()
    geo = node_geometry(m, s, np.concatenate([t for t, _ in rules]))
    weight = geo.weight * np.concatenate([w for _, w in rules])
    nw = vectors(REPRODUCING_NORMAL_SIGN * geo.normal * weight[:, None], dim)
    h = gp_batch(dim, nw[:, None], representatives(m, geo.point, [f.germ for f in sections]))
    kb, _ = _kernel_pairs(m, geo.point, y)
    sums = np.stack([_blade_apply(dim, kb[:, None, a:b], h[a:b])[0] for a, b in zip(edges, edges[1:])])
    if y.chart != s.chart:
        sums = gp_batch(dim, kernel._target_weight(m, s.chart, y), sums)
    full, half = (sums[[used.index(od) for od in ods]] / unit_sphere_area(m.n) for ods in (orders, halves))
    nodes = np.diff(edges)[[used.index(od) for od in orders]]
    return CauchyIntegrals(full.swapaxes(0, 1), row_norms(full - half).T, nodes)


def cauchy_integral(
    m: GluedManifold, s: Hypersurface, f: Section, y: ManifoldPoint, order: int | None = None
) -> QuadratureReport:
    """The one-integral case of cauchy_integrals, at the given order (None:
    the surface's)."""
    grid = cauchy_integrals(m, s, y, [f], [s.quad_order if order is None else order])
    return QuadratureReport(
        Multivector(m.n + 1, grid.value[0, 0]), float(grid.estimated_error[0, 0]), int(grid.nodes_used[0])
    )


# -- Plemelj / Hardy projections -------------------------------------------


@dataclass(frozen=True)
class PlemeljResult:
    """g_plus, g_minus and g stacked as parts (3, N, 2^k) by the N-point rule
    and as half (3, N/2, 2^k) by the rule on the even nodes; each attribute
    is the Multivector rows of parts, built on first read."""

    parts: np.ndarray
    half: np.ndarray

    def _rows(self, i: int) -> tuple[Multivector, ...]:
        return tuple(Multivector(self.parts.shape[-1].bit_length() - 1, v) for v in self.parts[i])

    g_plus = cached_property(lambda self: self._rows(0))
    g_minus = cached_property(lambda self: self._rows(1))
    g = cached_property(lambda self: self._rows(2))


def _fft_derivative(values: np.ndarray, period: float) -> np.ndarray:
    """Spectral derivative along axis 0 of equispaced periodic samples."""
    nn = values.shape[0]
    freqs = np.fft.fftfreq(nn, d=1.0 / nn) * (2.0 * np.pi / period)
    if nn % 2 == 0:
        freqs[nn // 2] = 0.0
    return np.real(np.fft.ifft(1j * freqs[:, None] * np.fft.fft(values, axis=0), axis=0))


def plemelj_projections(
    m: GluedManifold, s: Hypersurface, g: Callable[[ManifoldPoint], np.ndarray], n_nodes: int | None = None
) -> PlemeljResult:
    """Discrete Hardy-space splitting g = g_plus + g_minus on a smooth closed
    curve in chart 1 (n = 2), with g_plus the approximate trace of the interior Cauchy
    extension: P_pm = (I pm C_S) / 2. The data g is a callable that takes
    the node point array and returns its coefficients (N, 2^(n+1)), such as
    Section.value_at. N must be even and at least 4.

    The singular integral C_S is regularized at each target node i by
    subtracting the constant-germ section W c_i that matches g there
    (c_i = W_i^{-1} g_i): its principal value is known exactly from the jump
    relation, and the remaining integrand is smooth and periodic, so the
    trapezoid rule is spectrally accurate once the removable diagonal value
    is filled in from the FFT derivative of the data. The regularized sum is
    linear in c_i, so all targets share one kernel fill and one FFT of [g | W] per rule:

        C_S g = g + (2h / omega_n) [A g - (A W) c + B (g' - W' c)]

    with A_ij = C_M(x_j, x_i) n_j |u'_j| off the diagonal and zero on it, applied
    to h_j = n_j |u'_j| g_j by _blade_apply, and B_i = u'_i n_i / |u'_i| the
    diagonal limit (G ~ u'/(s |u'|^2), data ~ s d').

    Every per-node quantity is evaluated once; the N-point rule gives parts and
    the N/2-point rule on the even nodes (step 2h) gives half, which is the
    N/2-point rule of the curve with its bounds shifted by -h/2.
    """
    if m.n != 2:
        raise SurfaceError("Plemelj projections are implemented for n = 2 curves")
    if not s.closed or s.chart != 1:
        raise SurfaceError("need a closed curve in chart 1")
    (a, b) = s.bounds[0]
    period = b - a
    nn = s.quad_order if n_nodes is None else n_nodes
    if nn < 4 or nn % 2:
        raise SurfaceError(f"Plemelj projections need an even number of nodes >= 4, got {nn}")
    h = period / nn
    dim = m.n + 1
    t = a + (np.arange(nn)[:, None] + 0.5) * h
    geo = node_geometry(m, s, t)

    gc = g(geo.point)
    if np.shape(gc) != (nn, 1 << dim):
        raise SurfaceError(f"boundary data must be coefficients ({nn}, {1 << dim}) for the node array")

    # W_j c is the constant-germ section with germ c, evaluated at node j
    wc = _lift_weight(m, geo.point.coord)
    c, gw = gp_batch(dim, clifford_group_inverse(dim, wc), gc), np.hstack([gc, wc])

    nw = vectors(REPRODUCING_NORMAL_SIGN * geo.normal * geo.weight[:, None], dim)
    hw = gp_batch(dim, nw[:, None], gw.reshape(nn, 2, -1))  # h = n |u'| [g | W], (N, 2, 2^dim)
    x, off = geo.point.coord, ~np.eye(nn, dtype=bool)
    # K^b, the real (N, N) matrix of blade b, target i by node j
    kb, _ = _kernel_pairs(m, ManifoldPoint(s.chart, x[None]), ManifoldPoint(s.chart, x[:, None]), off)
    tangent = embed_differential(m, s.chart, x, s.param_jac(t)[..., 0])
    bvec = gp_batch(dim, vectors(tangent / geo.weight[:, None] ** 2, dim), nw)

    def apply(rows: slice, step: float) -> np.ndarray:
        """(g_plus, g_minus, g) by the rule with the given step on the nodes rows."""
        gr, cr = gc[rows], c[rows]
        a_g, a_w = np.moveaxis(_blade_apply(dim, kb[:, rows, rows], hw[rows]), 1, 0)
        dg, dw = np.split(_fft_derivative(gw[rows], period), 2, axis=1)
        cs = gr + (2.0 * step / unit_sphere_area(m.n)) * (
            a_g - gp_batch(dim, a_w, cr) + gp_batch(dim, bvec[rows], dg - gp_batch(dim, dw, cr))
        )
        return np.stack(((gr + cs) * 0.5, (gr - cs) * 0.5, gr))

    return PlemeljResult(apply(slice(None), h), apply(slice(None, None, 2), 2.0 * h))


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
        return center + radius * np.stack([np.cos(t[..., 0]), np.sin(t[..., 0])], axis=-1)

    def jac(t):
        return radius * np.stack([-np.sin(t[..., 0]), np.cos(t[..., 0])], axis=-1)[..., None]

    interior = interior or ManifoldPoint(chart, center)
    return Hypersurface(chart, ((0.0, 2.0 * np.pi),), param, jac, quad_order, interior, closed=True)


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
        th, ph = t[..., 0], t[..., 1]
        return center + radius * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
        )

    def jac(t):
        th, ph = t[..., 0], t[..., 1]
        rows = (
            [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
            [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
            [-np.sin(th), np.zeros_like(th)],
        )
        return radius * np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    eps = 1e-9  # keep clear of the polar parametrization degeneracy
    bounds = ((eps, np.pi - eps), (0.0, 2.0 * np.pi))
    interior = interior or ManifoldPoint(chart, center)
    return Hypersurface(chart, bounds, param, jac, quad_order, interior, closed=True)
