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
Both suites apply one boundary operator, sum_b e_b (K^b @ h) for the real
blade matrices K^b of G(E(x_j) - E(y_i)) and node rows h_j = w_j n_j f_j,
whose blades _blade_sum adds: in cauchy_integrals, for each job of a call
that shares one node table, one product per node set with the rows of the
sections it carries and one blade sum over all of them (then J_y on the
left for a target in another chart); in plemelj_projections, by
_blade_apply over the odd-offset node pairs.

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
from itertools import accumulate
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


def _blade_sum(dim: int, kh: np.ndarray) -> np.ndarray:
    """sum_b e_b kh[b] as (..., 2^dim) for the products kh (n+1, ..., 2^dim)
    of the real blade matrices of a grade-1 kernel with node rows."""
    perm, sign = _product_tables(dim)
    return sum(sign[1 << b] * kh[b][..., perm[1 << b]] for b in range(len(kh)))


def _blade_apply(dim: int, kb: np.ndarray, h: np.ndarray) -> np.ndarray:
    """sum_b e_b (K^b @ h) as (T, ..., 2^dim) for the real blade matrices kb
    (n+1, T, N) of a grade-1 kernel and the node rows h (N, ..., 2^dim)."""
    return _blade_sum(dim, (kb @ h.reshape(len(h), -1)).reshape(kb.shape[:-1] + h.shape[1:]))


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
    lifted by the weight W of the inverse chart-1 map, or f itself on a plane
    chart 1, where W is 1. Chart 2: J_y (W f), with W f read at the continued
    transition of p and J_y the weight of the chart transfer, so the
    representatives agree on the neck under the bundle identification. W and
    J_y are evaluated once for all germs; an inadmissible point raises
    ManifoldError before either is."""
    if np.any(bad := classify(m, p) == INADMISSIBLE):
        raise ManifoldError(f"section point {first_point(p.coord, bad)} in chart {p.chart} is inadmissible")
    coord = p.coord if p.chart == 1 else apply_transition(m, p.coord)
    rows = np.stack([germ.values(coord) for germ in germs], axis=-2)
    if m.chart(1).has_sphere:
        x, w = m._lift
        rows = gp_batch(m.n + 1, (w if x is coord else _lift_weight(m, coord))[..., None, :], rows)
    return rows if p.chart == 1 else gp_batch(m.n + 1, kernel._target_weight(m, 1, p)[..., None, :], rows)


def _lift_weight(m: GluedManifold, coord) -> np.ndarray:
    """W at chart-1 coordinates (..., n) as rows (..., 2^(n+1)): the weight of
    the inverse chart-1 map, which lifts a germ f to the chart-1
    representative W f of its section; the scalar 1 on a plane chart 1."""
    if m.chart(1).has_sphere:
        return weight_J(chart_map(m, -1), embed(m, ManifoldPoint(1, coord)))
    return np.broadcast_to(np.eye(2 << m.n)[0], np.shape(coord)[:-1] + (2 << m.n,))


class CauchyIntegrals(NamedTuple):
    """The Cauchy integrals of one job's F sections at its O orders, indexed
    [section, order]: value (F, O, 2^(n+1)), estimated_error (F, O) and
    nodes_used (O,)."""

    value: np.ndarray
    estimated_error: np.ndarray
    nodes_used: np.ndarray


def cauchy_integrals(
    m: GluedManifold, jobs: Sequence[tuple[Hypersurface, ManifoldPoint, Sequence[Section], Sequence[int]]]
) -> list[CauchyIntegrals]:
    """For each job (s, y, sections, orders), (1/omega_n) * integral of
    C_M(x, y) n(x) f(x) over S for each section f and order; converges to
    the representative f(y) in y's chart for y inside the bounded subdomain.
    The error estimate is the distance to the half-order integral.

    The jobs, over surfaces of one chart, share one node table: each node
    set (surface, order) that a job uses, its orders and their halves, once.
    Each surface takes one node_geometry call. The sets that carry the same
    sections lie end to end, the lists of more sections first, and one
    representatives call per list forms h = w n f there as (N, F, 2^(n+1)).
    Each target takes one _kernel_pairs fill over the sets its jobs use. A
    job applies each of its sets by one matrix product and sums the blades
    of all of them at once (_blade_sum), then J_y goes on the left for a
    target in another chart."""
    for _, y, _, _ in jobs:
        if classify(m, y) == INADMISSIBLE:
            raise ManifoldError(f"evaluation point {first_point(y.coord)} in chart {y.chart} is inadmissible")
    chart, dim = jobs[0][0].chart, m.n + 1
    if any(s.chart != chart for s, *_ in jobs):
        raise SurfaceError("the surfaces of one cauchy_integrals call must lie in one chart")
    surfaces = {id(s): s for s, *_ in jobs}
    # each job's node sets (surface id, order): its orders and their halves
    uses = [[(id(s), od) for od in sorted({*ods, *(max(od // 2, 1) for od in ods)})] for s, _, _, ods in jobs]
    germs = {id(f): f.germ for _, _, sections, _ in jobs for f in sections}  # in order of first use
    carried = {}  # node set -> the ids of the sections its jobs integrate, in order of first use
    for (_, _, sections, _), keys in zip(jobs, uses):
        for key in keys:
            carried.setdefault(key, set()).update(map(id, sections))
    carried = {key: tuple(fid for fid in germs if fid in ids) for key, ids in carried.items()}
    lists = sorted(dict.fromkeys(carried.values()), key=len, reverse=True)  # stable: ties in order of first use
    rules = {key: _gauss_nodes(surfaces[key[0]].bounds, key[1]) for key in carried}

    def blocks(keys):
        """Each node set's slice of an array over the sets `keys`, laid end to end."""
        at = list(accumulate((rules[key][1].size for key in keys), initial=0))
        return {key: slice(a, b) for key, a, b in zip(keys, at, at[1:])}

    nodes = {}  # node set -> its chart points, weights and normals
    for sid, s in surfaces.items():
        mine = blocks([key for key in carried if key[0] == sid])
        geo = node_geometry(m, s, np.concatenate([rules[key][0] for key in mine]))
        for key, b in mine.items():
            nodes[key] = geo.point.coord[b], geo.weight[b] * rules[key][1], geo.normal[b]
    h = {}  # node set -> its rows of h = w n f and the section ids of their columns
    for ids in lists:
        mine = blocks([key for key in carried if carried[key] == ids])
        x, weight, normal = map(np.concatenate, zip(*(nodes[key] for key in mine)))
        values = representatives(m, ManifoldPoint(chart, x), [germs[fid] for fid in ids])
        hs = gp_batch(dim, vectors(REPRODUCING_NORMAL_SIGN * normal * weight[:, None], dim)[:, None], values)
        h.update((key, (hs[b], ids)) for key, b in mine.items())

    reach = {}  # target -> its point and the node sets its jobs use
    for (_, y, _, _), keys in zip(jobs, uses):
        reach.setdefault(id(y), (y, set()))[1].update(keys)
    fills = {}  # target -> its kernel rows (n+1, 1, N) by node set, and J_y in another chart
    for yid, (y, used) in reach.items():
        mine = blocks([key for key in carried if key in used])
        kb, _ = _kernel_pairs(m, ManifoldPoint(chart, np.concatenate([nodes[key][0] for key in mine])), y)
        jy = kernel._target_weight(m, chart, y) if y.chart != chart else None
        fills[yid] = {key: kb[:, None, b] for key, b in mine.items()}, jy
    out = []
    for (s, y, sections, orders), keys in zip(jobs, uses):
        kb, jy = fills[id(y)]
        kh = []
        for key in keys:
            hk, ids = h[key]
            product = (kb[key] @ hk.reshape(len(hk), -1)).reshape(dim, len(ids), 1 << dim)
            kh.append(product[:, [ids.index(id(f)) for f in sections]])
        sums = _blade_sum(dim, np.stack(kh, axis=1))
        if jy is not None:
            sums = gp_batch(dim, jy, sums)
        full, half = (
            sums[[keys.index((id(s), od)) for od in ods]] / unit_sphere_area(m.n)
            for ods in (orders, [max(od // 2, 1) for od in orders])
        )
        size = np.array([rules[(id(s), od)][1].size for od in orders])
        out.append(CauchyIntegrals(full.swapaxes(0, 1), row_norms(full - half).T, size))
    return out


def cauchy_integral(
    m: GluedManifold, s: Hypersurface, f: Section, y: ManifoldPoint, order: int | None = None
) -> QuadratureReport:
    """The one-integral case of cauchy_integrals: one job of one section at
    the given order (None: the surface's)."""
    (grid,) = cauchy_integrals(m, [(s, y, [f], [s.quad_order if order is None else order])])
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


def plemelj_projections(
    m: GluedManifold, s: Hypersurface, g: Callable[[ManifoldPoint], np.ndarray], n_nodes: int | None = None
) -> PlemeljResult:
    """Discrete Hardy-space splitting g = g_plus + g_minus on a smooth closed
    curve in chart 1 (n = 2), with g_plus the approximate trace of the interior Cauchy
    extension: P_pm = (I pm C_S) / 2. The data g is a callable that takes
    the node point array and returns its coefficients (N, 2^(n+1)), such as
    Section.value_at. N must be a multiple of 4, so that the half rule's
    N/2 nodes split evenly into its own offset pairs.

    C_S is the offset trapezoid rule, which at node i sums the nodes j with
    j - i odd (Sidi & Israeli, J. Sci. Comput. 3, 1988), regularized at each
    target by the constant-germ section W c_i that matches g there
    (c_i = W_i^{-1} g_i), whose principal value is g_i by the jump relation.
    The sum is linear in c_i, so all targets share one kernel fill:

        C_S g_i = g_i + (4h / omega_n) sum_{j - i odd} A_ij (h_j - (n w W)_j c_i)

    with A_ij = C_M(x_j, x_i) applied by _blade_apply to h = n w [g | W].
    The fill is the even targets by all N nodes, diagonal masked, so every
    pair either rule uses is checked; G is odd, so the odd targets' block is
    minus the transpose of its odd columns. half is the N/2-point rule on the
    even nodes, which reads the 0 mod 4 x 2 mod 4 block of the even columns
    alike: the N/2-point rule of the curve with its bounds shifted by -h/2.
    """
    if m.n != 2:
        raise SurfaceError("Plemelj projections are implemented for n = 2 curves")
    if not s.closed or s.chart != 1:
        raise SurfaceError("need a closed curve in chart 1")
    (a, b) = s.bounds[0]
    nn = s.quad_order if n_nodes is None else n_nodes
    if nn < 4 or nn % 4:
        raise SurfaceError(f"Plemelj projections need a multiple of 4 nodes >= 4, got {nn}")
    h = (b - a) / nn
    dim = m.n + 1
    geo = node_geometry(m, s, a + (np.arange(nn)[:, None] + 0.5) * h)
    x, half = geo.point.coord, nn // 2

    # W_j c is the constant-germ section with germ c at node j; a section as the data reads W
    m._lift[:] = x, (wc := _lift_weight(m, x))
    try:
        gc = g(geo.point)
    finally:
        m._lift[:] = None, None
    if np.shape(gc) != (nn, 1 << dim):
        raise SurfaceError(f"boundary data must be coefficients ({nn}, {1 << dim}) for the node array")
    c = gp_batch(dim, clifford_group_inverse(dim, wc), gc)
    nw = vectors(REPRODUCING_NORMAL_SIGN * geo.normal * geo.weight[:, None], dim)
    hw = gp_batch(dim, nw[:, None], np.stack((gc, wc), axis=1))  # h = n w [g | W], (N, 2, 2^dim)
    # K^b, the real (N/2, N) matrix of blade b: target 2i by node x_0, x_2, ..., x_1, x_3, ...
    nodes = ManifoldPoint(s.chart, np.concatenate((x[0::2], x[1::2]))[None])
    kb, _ = _kernel_pairs(m, nodes, ManifoldPoint(s.chart, x[0::2, None]), ~np.eye(half, nn, dtype=bool))

    def apply(k: np.ndarray, rows: slice, spacing: float) -> np.ndarray:
        """(g_plus, g_minus, g) by the offset rule on the nodes rows, spaced
        by spacing, from the block k of its even targets by its odd nodes."""
        gr, hr = gc[rows], hw[rows]
        sums = np.empty(hr.shape)  # A [g | W] at each target, in node order
        sums[0::2], sums[1::2] = _blade_apply(dim, k, hr[1::2]), -_blade_apply(dim, k.swapaxes(1, 2), hr[0::2])
        cs = gr + (4.0 * spacing / unit_sphere_area(m.n)) * (sums[:, 0] - gp_batch(dim, sums[:, 1], c[rows]))
        return np.array(((gr + cs) * 0.5, (gr - cs) * 0.5, gr))

    return PlemeljResult(
        apply(kb[:, :, half:], slice(None), h), apply(kb[:, 0::2, 1:half:2], slice(None, None, 2), 2.0 * h)
    )


# -- built-in surface families ----------------------------------------------


def chart_circle(
    m: GluedManifold,
    chart: int,
    center: np.ndarray,
    radius: float | tuple[float, float],
    quad_order: int,
    interior: ManifoldPoint | None = None,
) -> Hypersurface:
    """Circle in a chart coordinate plane (n = 2); a pair of radii gives the
    ellipse with those semi-axes along the coordinate axes."""
    if m.n != 2:
        raise SurfaceError("chart_circle requires n = 2")
    center = np.asarray(center, dtype=np.float64)
    radius = np.asarray(radius, dtype=np.float64)

    def param(t):
        return center + radius * np.stack([np.cos(t[..., 0]), np.sin(t[..., 0])], axis=-1)

    def jac(t):
        return (radius * np.stack([-np.sin(t[..., 0]), np.cos(t[..., 0])], axis=-1))[..., None]

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
