"""Glued conformally flat manifolds: two spheres joined through annuli
(two_spheres, radius parameter r > 1) or a plane glued to a sphere
(plane_sphere).

Chart coordinates (the pre-Cayley planes) are the source of truth; sphere
embeddings are derived on demand. Chart j admits ||x|| > 1/r; coordinates
with 1/r < ||x|| < r form the neck, which is shared between the charts
through the involution x -> -x^{-1}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import row_norms
from .moebius import (
    VahlenMap,
    cayley,
    cayley_embed,
    compose,
    identity_map,
    inverse,
    invertible,
    neck_inversion,
)

# classify's region codes: how many of the neck's bounds a point has passed
# (|x| > 1/r, then |x| >= r)
INADMISSIBLE, NECK, BODY = 0, 1, 2


class ManifoldError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    has_sphere: bool
    scale: float = 1.0


@dataclass(frozen=True)
class GluedManifold:
    n: int
    r: float
    charts: tuple[Chart, Chart]

    def __post_init__(self):
        if not self.r > 1.0:
            raise ManifoldError("gluing radius r must exceed 1")
        if len(self.charts) != 2:
            raise ManifoldError("need exactly two charts")
        # the Vahlen maps built so far (_vahlen_map), and [node coordinates, W]
        # while integration's Plemelj splitting shares its lift weight W with its data
        object.__setattr__(self, "_maps", {})
        object.__setattr__(self, "_lift", [None, None])

    def chart(self, j: int) -> Chart:
        return self.charts[j - 1]

    def _vahlen_map(self, key):
        """The Vahlen map (Cl_{n+1}, exponent n) under key, built and validated on
        first read: chart j's map by j, a sphere chart's inverse by -j, transfers
        by (to_chart, from_chart), the neck's (1, 2) invertible; else KeyError."""
        maps, k, exponent = self._maps, self.n + 1, self.n
        if key not in maps:
            if key in ((1, 1), (2, 2)) or key in (1, 2) and not self.chart(key).has_sphere:
                maps[key] = identity_map(k, exponent)
            elif key in (1, 2):
                maps[key] = cayley(self.n, self.chart(key).scale)
            elif key == (1, 2):
                neck = compose(neck_inversion(k, exponent), self._vahlen_map(-2))
                maps[key] = invertible(compose(self._vahlen_map(1), neck))
            elif key == (2, 1) or key in (-1, -2) and self.chart(-key).has_sphere:
                maps[key] = inverse(self._vahlen_map((1, 2) if key == (2, 1) else -key))
            else:
                raise KeyError(key)
        return maps[key]


def two_spheres(n: int, r: float, scales: tuple[float, float] = (1.0, 1.0)) -> GluedManifold:
    return GluedManifold(n, r, (Chart(True, scales[0]), Chart(True, scales[1])))


def plane_sphere(n: int, r: float, sphere_scale: float = 1.0) -> GluedManifold:
    return GluedManifold(n, r, (Chart(False), Chart(True, sphere_scale)))


@dataclass(frozen=True)
class ManifoldPoint:
    chart: int
    coord: np.ndarray  # coordinates (n,) or a point array (..., n), read-only

    def __post_init__(self):
        if self.chart not in (1, 2):
            raise ManifoldError("chart must be 1 or 2")
        c = np.asarray(self.coord, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "coord", c)


def classify(m: GluedManifold, p: ManifoldPoint):
    """The region code BODY, NECK or INADMISSIBLE of the point's chart
    coordinates (an int8 array for a point array)."""
    rho = row_norms(p.coord)
    return np.add(rho > 1.0 / m.r, rho >= m.r, dtype=np.int8)


def apply_transition(m: GluedManifold, coord):
    """Evaluate the (continued) transition x -> x / |x|^2 at chart
    coordinates (n,) or (..., n); the origin, inadmissible in both charts,
    reads NaN."""
    coord = np.asarray(coord, dtype=np.float64)
    return coord / (coord * coord).sum(-1, keepdims=True)


def embed(m: GluedManifold, p: ManifoldPoint) -> np.ndarray:
    """Embedding of the point (array) into R^{n+1}: the (scaled) Cayley image
    for sphere charts, the coordinate plane (last component 0) for plane
    charts."""
    ch = m.chart(p.chart)
    if ch.has_sphere:
        return ch.scale * cayley_embed(p.coord)
    return np.concatenate((p.coord, np.zeros_like(p.coord[..., :1])), axis=-1)


def embed_differential(m: GluedManifold, chart: int, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E'(x) v as (..., n+1): the differential of the chart embedding at chart
    coordinates x (..., n), applied to vectors v (..., n). A sphere chart of
    scale s is conformal with factor 2s / D, D = |x|^2 + 1:
    E'(x) v = (2s / D) (-v + 2x (x.v) / D, 2 (x.v) / D). The plane chart's
    is v with a last component 0."""
    v = np.asarray(v, dtype=np.float64)
    ch = m.chart(chart)
    if not ch.has_sphere:
        return np.concatenate((v, np.zeros_like(v[..., :1])), axis=-1)
    d = (x * x).sum(-1, keepdims=True) + 1.0
    xv = 2.0 * (x * v).sum(-1, keepdims=True) / d
    return (2.0 * ch.scale / d) * np.concatenate((x * xv - v, xv), axis=-1)


def chart_map(m: GluedManifold, j: int) -> VahlenMap:
    """Chart j's coordinate plane onto its embedded picture, as a Cl_{n+1}
    matrix: the scaled Cayley map for a sphere chart, the identity for the
    plane chart. Agrees pointwise with embed. For a sphere chart,
    chart_map(m, -j) is the inverse map."""
    return m._vahlen_map(j)


def chart_transfer(m: GluedManifold, to_chart: int, from_chart: int) -> VahlenMap:
    """Sphere-level Vahlen map carrying the embedded picture of from_chart
    onto that of to_chart (c_to o psi' o c_from^{-1}), as a Cl_{n+1} matrix.
    transfer(1<-2) and transfer(2<-1) are exact matrix inverses of each
    other."""
    return m._vahlen_map((to_chart, from_chart))
