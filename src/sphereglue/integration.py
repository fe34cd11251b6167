"""Surface quadrature on glued manifolds, the Cauchy integral formula and
discrete Plemelj (Hardy) projections.

Quadrature runs on the embedded picture (sphere embedding for sphere charts,
the coordinate plane otherwise): Gauss-Legendre product rules per patch with
the surface measure taken from the Gram determinant of the embedded
parametrization. Normals are unit vectors tangent to the embedded manifold
and orthogonal to the surface, oriented outward from the bounded subdomain.

Everything is evaluated over whole node arrays: a patch's parametrization,
node geometry, sections, germs and the kernel take arrays of shape (N, ...)
and return coefficient arrays (N, 2^(n+1)), which the rule sums at once. The
Plemelj kernel matrix is filled by one kernel call over all off-diagonal
node pairs. Every check of the one-point path (diagonal, admissibility,
germ domain, degenerate frame, singular weight) applies to every node. Both
quadratures stack the nodes of every order they need (each order and its
half) per patch and take their geometry from one node_geometry call;
cauchy_integrals evaluates kernels per target, values per section and
products per (target, section) pair over only the orders each one uses.

Sign convention: with e_j^2 = -1 the reproducing pairing uses the inward
normal; cauchy_integral applies REPRODUCING_NORMAL_SIGN to the outward
normal so that the formula returns +f(y).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import gamma, pi
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import Multivector, clifford_group_inverse, gp_batch, vectors
from .fields import CliffordField, constant_field
from .kernel import kernel_CM
from .manifold import (
    INADMISSIBLE,
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
from .moebius import first_point, is_infinity, weight_J

REPRODUCING_NORMAL_SIGN = -1.0


class SurfaceError(ValueError):
    pass


def unit_sphere_area(n: int) -> float:
    """omega_n: surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)


@dataclass(frozen=True)
class SurfacePatch:
    """One parametrized piece of a hypersurface, in a single chart.

    param maps parameter arrays (N, n-1) to chart coordinates (N, n);
    param_jac supplies their analytic Jacobians (N, n, n-1).
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
    """What the nodes of a patch need, one row per node: the chart point
    array, the embeddings (N, n+1), the sqrt-Gram weights (N,), the outward
    unit normals (N, n+1) and the embedded tangents (N, n+1, n-1), one column
    per surface parameter."""

    point: ManifoldPoint
    embedded: np.ndarray
    weight: np.ndarray
    normal: np.ndarray
    tangents: np.ndarray


def _generalized_cross(rows: np.ndarray) -> np.ndarray:
    """Vectors in R^m orthogonal to the m-1 rows of each (..., m-1, m) stack
    (cofactor expansion)."""
    m = rows.shape[-1]
    return np.stack(
        [(-1.0) ** i * np.linalg.det(np.delete(rows, i, axis=-1)) for i in range(m)], axis=-1
    )


def _interior_in_chart(m: GluedManifold, s: Hypersurface, chart: int) -> np.ndarray:
    p = s.interior_point
    coord = p.coord if p.chart == chart else apply_transition(m, p.coord)
    if is_infinity(coord):
        raise SurfaceError("interior point maps to infinity in the surface chart")
    return np.asarray(coord, dtype=np.float64)


def node_geometry(m: GluedManifold, s: Hypersurface, patch: SurfacePatch, t: np.ndarray) -> NodeGeometry:
    """Geometry of the surface nodes at parameters t of shape (N, n-1).

    The chart normal is oriented away from the bounded subdomain in flat
    chart coordinates (valid for surfaces star-shaped around the interior
    point). The chart maps are conformal, so embed_jacobian carries it to a
    vector tangent to the embedded manifold and orthogonal to the embedded
    surface tangents: the embedded normal.
    """
    x = np.asarray(patch.param(t), dtype=np.float64)
    pt = ManifoldPoint(patch.chart, x)
    jac_chart = np.asarray(patch.param_jac(t), dtype=np.float64)
    nc = _generalized_cross(np.swapaxes(jac_chart, -1, -2))
    if np.any(degenerate := np.linalg.norm(nc, axis=-1) <= 1e-13):
        raise SurfaceError(f"degenerate tangent frame at the quadrature node {first_point(x, degenerate)}")
    inward = np.sum(nc * (x - _interior_in_chart(m, s, patch.chart)), axis=-1) <= 0
    nc = np.where(inward[..., None], -nc, nc)
    ejac = embed_jacobian(m, patch.chart, x)
    tangents = ejac @ jac_chart
    gram = np.linalg.det(np.swapaxes(tangents, -1, -2) @ tangents)
    normal = (ejac @ nc[..., None])[..., 0]
    normal = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
    return NodeGeometry(pt, embed(m, pt), np.sqrt(np.maximum(gram, 0.0)), normal, tangents)


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order, read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _gauss_nodes(bounds, order) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss nodes (N, len(bounds)) and weights (N,) on a box."""
    xs, ws = _leggauss(order)
    axes = [((b - a) / 2.0 * xs + (a + b) / 2.0, (b - a) / 2.0 * ws) for a, b in bounds]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    wgrids = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), np.prod([w.ravel() for w in wgrids], axis=0)


class _Stack(NamedTuple):
    """A patch's nodes at several orders, stacked order after order: their
    geometry, each order's rows, and its rule weights times the sqrt-Gram
    weights. A set of used orders is a sorted list."""

    geo: NodeGeometry
    rows: dict[int, slice]
    weights: dict[int, np.ndarray]

    def take(self, used) -> np.ndarray:
        """The rows of the used orders' nodes."""
        return np.r_[tuple(self.rows[od] for od in used)]

    def split(self, used, values: np.ndarray) -> dict[int, np.ndarray]:
        """Values over take(used), as one block per order."""
        return dict(zip(used, np.split(values, np.cumsum([self.weights[od].size for od in used])[:-1])))


def _stacks(m: GluedManifold, s: Hypersurface, orders) -> list[_Stack]:
    """Each patch's nodes at every given order, from one node_geometry call per patch."""
    stacks = []
    for patch in s.patches:
        rules = [_gauss_nodes(patch.bounds, od) for od in orders]
        ends = np.cumsum([w.size for _, w in rules]).tolist()
        geo = node_geometry(m, s, patch, np.concatenate([t for t, _ in rules]))
        rows = {od: slice(end - w.size, end) for od, (_, w), end in zip(orders, rules, ends)}
        stacks.append(_Stack(geo, rows, {od: geo.weight[rows[od]] * w for od, (_, w) in zip(orders, rules)}))
    return stacks


def _report(stacks: list[_Stack], order: int, values, dim: int, scale: float = 1.0) -> QuadratureReport:
    """The rule at the order and at its half, divided by scale, on each
    patch's node values split by order (_Stack.split): scalars (N,) or
    coefficients (N, 2^dim), one tensordot per patch and order. The error
    estimate is the distance between the two."""
    full, half = (
        sum((np.tensordot(st.weights[od], v[od], axes=1) for st, v in zip(stacks, values)), 0.0)
        for od in (order, max(order // 2, 1))
    )
    value = Multivector(dim, (full if full.ndim else full * np.eye(1 << dim)[0]) / scale)
    nodes = sum(st.weights[order].size for st in stacks)
    return QuadratureReport(value, float(np.linalg.norm(full - half)) / scale, nodes)


def surface_quadrature(
    m: GluedManifold,
    s: Hypersurface,
    integrand: Callable[[ManifoldPoint, np.ndarray, np.ndarray], np.ndarray],
    order: int | None = None,
) -> QuadratureReport:
    """Integrate over the hypersurface. The integrand receives a patch's
    node point array, the embeddings (N, n+1) and the outward unit normals
    (N, n+1), and returns scalars (N,) or coefficient arrays (N, 2^(n+1)).
    Two refinement levels give the error estimate; one integrand call per
    patch covers the nodes of both."""
    order = order or s.quad_order
    stacks = _stacks(m, s, sorted({order, max(order // 2, 1)}))
    values = [integrand(st.geo.point, st.geo.embedded, st.geo.normal) for st in stacks]
    values = [st.split(list(st.rows), np.asarray(v, dtype=np.float64)) for st, v in zip(stacks, values)]
    return _report(stacks, order, values, m.n + 1)


# -- sections ---------------------------------------------------------------


@dataclass(frozen=True)
class Section:
    """A left Clifford holomorphic section in per-chart representatives.

    rep(chart, coord) returns the Cl_{n+1} coefficients (..., 2^(n+1)) of the
    representative at chart coordinates (..., n); on the neck the two
    representatives are related by the conformal weight of the chart
    transfer map.
    """

    manifold: GluedManifold
    rep: Callable[[int, np.ndarray], np.ndarray]

    def value_at(self, p: ManifoldPoint):
        """The section at p: a Multivector for one point, the coefficient
        array (..., 2^(n+1)) for a point array."""
        v = self.rep(p.chart, p.coord)
        return Multivector(self.manifold.n + 1, v) if v.ndim == 1 else v


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
    dim = germ.dim_alg
    chart1_inv = chart_map(m, -1) if m.chart(1).has_sphere else None
    trans21 = chart_transfer(m, 1, 2)  # sphere-2 -> sphere-1 picture

    def rep(chart: int, coord) -> np.ndarray:
        if chart == 1:
            if chart1_inv is None:
                return germ.values(coord)
            return gp_batch(dim, weight_J(chart1_inv, embed(m, ManifoldPoint(1, coord))), germ.values(coord))
        u2 = embed(m, ManifoldPoint(2, coord))
        return gp_batch(dim, weight_J(trans21, u2), rep(1, apply_transition(m, coord)))

    return Section(m, rep)


def cauchy_integrals(
    m: GluedManifold,
    s: Hypersurface,
    requests: Sequence[tuple[Section, ManifoldPoint, int | None]],
    normal_sign: float = REPRODUCING_NORMAL_SIGN,
) -> list[QuadratureReport]:
    """For each request (f, y, order), (1/omega_n) * integral of C_M(x, y)
    n(x) f(x) over S at that order (None: the surface's); converges to the
    representative f(y) in y's chart for y inside the bounded subdomain. The
    error estimate is the distance to the half-order integral.

    The requests share one pass per patch: node geometry over the nodes of
    every order they use (each order and its half), C_M(x, y) n(x) once per
    target, section values once per section and their product once per
    (target, section) pair, each over only the orders that its target,
    section or pair uses. normal_sign is a falsification control; leave it
    at the default for verification runs."""
    for _, y, _ in requests:
        if classify(m, y) == INADMISSIBLE:
            raise ManifoldError(f"evaluation point {first_point(y.coord)} in chart {y.chart} is inadmissible")
    dim = m.n + 1
    keys = [(y.chart, y.coord if is_infinity(y.coord) else y.coord.tobytes()) for _, y, _ in requests]
    targets = {ty: y for ty, (_, y, _) in zip(keys, requests)}
    keyed = [(f, ty, od or s.quad_order) for ty, (f, _, od) in zip(keys, requests)]
    uses = defaultdict(set), defaultdict(set), defaultdict(set)  # per target, section and pair
    for f, ty, od in keyed:
        for used in (uses[0][ty], uses[1][f], uses[2][ty, f]):
            used.update((od, max(od // 2, 1)))
    by_target, by_section, by_pair = ({k: sorted(u) for k, u in d.items()} for d in uses)
    stacks, prods = _stacks(m, s, sorted(set().union(*by_pair.values()))), defaultdict(list)
    for st in stacks:
        pts, normal, kern, vals = st.geo.point, normal_sign * st.geo.normal, {}, {}
        for ty, used in by_target.items():
            rows = st.take(used)
            kn = kernel_CM(m, ManifoldPoint(pts.chart, pts.coord[rows]), targets[ty]).coeffs
            kern[ty] = st.split(used, gp_batch(dim, kn, vectors(normal[rows], dim)))
        for f, used in by_section.items():
            vals[f] = st.split(used, f.value_at(ManifoldPoint(pts.chart, pts.coord[st.take(used)])))
        for (ty, f), used in by_pair.items():
            kn, fv = (np.concatenate([blocks[od] for od in used]) for blocks in (kern[ty], vals[f]))
            prods[ty, f].append(st.split(used, gp_batch(dim, kn, fv)))
    return [_report(stacks, od, prods[ty, f], dim, unit_sphere_area(m.n)) for f, ty, od in keyed]


def cauchy_integral(
    m: GluedManifold,
    s: Hypersurface,
    f: Section,
    y: ManifoldPoint,
    order: int | None = None,
    normal_sign: float = REPRODUCING_NORMAL_SIGN,
) -> QuadratureReport:
    """The one-request case of cauchy_integrals."""
    return cauchy_integrals(m, s, [(f, y, order)], normal_sign)[0]


# -- Plemelj / Hardy projections -------------------------------------------


@dataclass(frozen=True)
class PlemeljResult:
    points: ManifoldPoint
    g_plus: tuple[Multivector, ...]
    g_minus: tuple[Multivector, ...]
    g: tuple[Multivector, ...]


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
    g: Callable[[ManifoldPoint], np.ndarray],
    n_nodes: int | None = None,
) -> PlemeljResult:
    """Discrete Hardy-space splitting g = g_plus + g_minus on a smooth closed
    curve (n = 2), with g_plus the approximate trace of the interior Cauchy
    extension: P_pm = (I pm C_S) / 2. The data g is a callable that takes
    the node point array and returns its coefficients (N, 2^(n+1)), such as
    Section.value_at.

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
    geo = node_geometry(m, s, patch, a + (np.arange(nn)[:, None] + 0.5) * h)
    pts = geo.point

    gc = g(pts)
    if np.shape(gc) != (nn, 1 << dim):
        raise SurfaceError(f"boundary data must be coefficients ({nn}, {1 << dim}) for the node array")

    # W_j c is the constant-germ section with germ c, evaluated at node j
    wc = section_from_germ(m, constant_field(np.eye(1 << dim)[0], m.n)).value_at(pts)
    c = gp_batch(dim, clifford_group_inverse(dim, wc), gc)

    nw = vectors(REPRODUCING_NORMAL_SIGN * geo.normal * geo.weight[:, None], dim)
    i, j = np.nonzero(~np.eye(nn, dtype=bool))
    kern = np.zeros((nn, nn, 1 << dim))
    sources, targets = (ManifoldPoint(patch.chart, pts.coord[idx]) for idx in (j, i))
    kern[i, j], _ = kernel_CM(m, sources, targets)
    amat = gp_batch(dim, kern, nw[None])
    bvec = gp_batch(dim, vectors(geo.tangents[:, :, 0] / geo.weight[:, None] ** 2, dim), nw)

    a_g = gp_batch(dim, amat, gc[None]).sum(axis=1)
    a_w = gp_batch(dim, amat, wc[None]).sum(axis=1)
    d_prime = _fft_derivative(gc, period) - gp_batch(dim, _fft_derivative(wc, period), c)
    cs = gc + (2.0 * h / unit_sphere_area(m.n)) * (
        a_g - gp_batch(dim, a_w, c) + gp_batch(dim, bvec, d_prime)
    )
    parts = ((gc + cs) * 0.5, (gc - cs) * 0.5, gc)
    return PlemeljResult(pts, *(tuple(Multivector(dim, v) for v in arr) for arr in parts))


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

    patch = SurfacePatch(chart, ((0.0, 2.0 * np.pi),), param, jac)
    return Hypersurface((patch,), quad_order, interior or ManifoldPoint(chart, center), closed=True)


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
    patch = SurfacePatch(chart, ((eps, np.pi - eps), (0.0, 2.0 * np.pi)), param, jac)
    return Hypersurface((patch,), quad_order, interior or ManifoldPoint(chart, center), closed=True)
