"""The piecewise Cauchy kernel on a glued manifold.

The kernel value is the representative with x read in its own chart's
embedding and y in its own chart's bundle trivialization: when the charts
differ, the base kernel G(x_s - y_s) is computed in x's chart (y carried over
through the continued transition) and left-multiplied by the conformal
weight J_y of the sphere-level transfer map at y (_target_weight). The
sections carry the same weight, so the reproducing integral is exact.
_kernel_pairs fills G blade-major: the real matrices K^b, each contiguous,
that the quadrature's one boundary operator applies. It raises
DiagonalError on the diagonal x = y, read off the distance G divides by.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import gp_batch, row_norms, vectors
from .manifold import (
    INADMISSIBLE,
    NECK,
    GluedManifold,
    ManifoldPoint,
    ManifoldError,
    apply_transition,
    chart_transfer,
    classify,
    embed,
)
from .moebius import covariance_residual, first_point, weight_J

SAME_CHART = "same-chart"
OVERLAP_REP = "overlap-rep"
CROSS_GLUE = "cross-glue"


class DiagonalError(ValueError):
    pass


class KernelValue(NamedTuple):
    coeffs: np.ndarray
    case_tag: str | np.ndarray


def kernel_CM(m: GluedManifold, x: ManifoldPoint, y: ManifoldPoint) -> KernelValue:
    """C_M(x, y) over point arrays x and y, broadcast against each other.

    Returns the coefficient array (..., 2^(n+1)) and the case tag: a str
    when the charts agree or y is one point, else an array over y's shape.
    Raises DiagonalError if an embedded pair distance is at most 1e-10 of
    the larger embedded norm and ManifoldError if any point is inadmissible.
    """
    base, tag = _kernel_pairs(m, x, y)
    base = vectors(np.moveaxis(base, 0, -1), m.n + 1)
    if x.chart != y.chart:
        base = gp_batch(m.n + 1, _target_weight(m, x.chart, y), base)
    return KernelValue(base, tag)


def _target_weight(m: GluedManifold, chart: int, y: ManifoldPoint) -> np.ndarray:
    """J_y: the conformal weight at y of the transfer from y's chart to `chart`,
    on the left of G and of the chart-2 section representatives."""
    return weight_J(chart_transfer(m, chart, y.chart), embed(m, y))


def _kernel_pairs(m: GluedManifold, x: ManifoldPoint, y: ManifoldPoint, pairs=True):
    """The pair stage of kernel_CM: the components (n+1, ...) of G(E(x) - E(y))
    over the broadcast shape, each blade contiguous, y read in x's chart, and
    the case tag. Points are classified, carried over and embedded on their
    own shapes. Pairs where the mask `pairs` is False read zero and skip the
    diagonal test."""
    codes = classify(m, x), classify(m, y)
    for p, code in zip((x, y), codes):
        if np.any(bad := code == INADMISSIBLE):
            raise ManifoldError(f"inadmissible point in chart {p.chart} at {first_point(p.coord, bad)}")
    j, k = x.chart, y.chart
    if j == k:
        tag, y_in_j = SAME_CHART, y.coord
    else:
        # y is admissible, |y| > 1/r, so its image in chart j is finite
        tag = np.where(codes[1] == NECK, OVERLAP_REP, CROSS_GLUE)
        tag = tag if tag.ndim else str(tag)
        y_in_j = apply_transition(m, y.coord)
    ex, ey = embed(m, x), embed(m, ManifoldPoint(j, y_in_j))
    tx, ty = (1e-10 * row_norms(e) for e in (ex, ey))
    d = np.empty(ex.shape[-1:] + np.broadcast(ex, ey).shape[:-1])
    np.subtract(ex, ey, out=d.transpose(*range(1, d.ndim), 0))
    # G(d) = d / |d|^n in place, as moebius.cauchy_kernel_G, with one norm buffer
    r = np.einsum("b...,b...->...", d, d, out=np.empty(d.shape[1:]))
    np.sqrt(r, out=r)
    np.copyto(r, np.inf, where=~np.asarray(pairs))
    if np.any(diagonal := (r <= tx) | (r <= ty)):
        xs, ys = (f"{first_point(p.coord, diagonal)} in chart {p.chart}" for p in (x, y))
        raise DiagonalError(f"Cauchy kernel undefined on the diagonal: x = {xs}, y = {ys}")
    r **= m.n
    d /= r
    return d, tag


def overlap_consistency_residual(m: GluedManifold, x: ManifoldPoint, y: ManifoldPoint):
    """Both points in the neck: the kernel covariance residual of the
    chart-2 -> chart-1 transfer between the points' chart-2 and chart-1
    embeddings, one per pair for point arrays. Each point is read in chart 1
    first (a chart-2 point through the transition, as kernel_CM reads it),
    then carried to chart 2."""
    if np.any(classify(m, x) != NECK) or np.any(classify(m, y) != NECK):
        raise ManifoldError("overlap consistency needs both points in the neck")
    x1, y1 = (p.coord if p.chart == 1 else apply_transition(m, p.coord) for p in (x, y))
    e1x, e1y = (embed(m, ManifoldPoint(1, c)) for c in (x1, y1))
    e2x, e2y = (embed(m, ManifoldPoint(2, apply_transition(m, c))) for c in (x1, y1))
    return covariance_residual(chart_transfer(m, 1, 2), e2x, e2y, e1x, e1y)
