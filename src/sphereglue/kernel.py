"""The piecewise Cauchy kernel on a glued manifold.

The kernel value is the representative with x read in its own chart's
embedding and y read in its own chart's bundle trivialization: when the two
charts differ, the base kernel G(x_s - y_s) is computed in x's chart (with y
carried over through the continued transition) and left-multiplied by the
conformal weight of the sphere-level transfer map evaluated at y. With the
matching section convention this makes the reproducing integral exact; it is
the weight-placement convention validated by the Cauchy-formula suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Multivector
from .manifold import (
    NECK,
    GluedManifold,
    ManifoldPoint,
    ManifoldError,
    apply_transition,
    chart_transfer,
    classify,
    embed,
    equivalent,
)
from .moebius import cauchy_kernel_G, covariance_residual, weight_J

SAME_CHART = "same-chart"
OVERLAP_REP = "overlap-rep"
CROSS_GLUE = "cross-glue"


class DiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class KernelValue:
    value: Multivector
    case_tag: str


def kernel_CM(m: GluedManifold, x: ManifoldPoint, y: ManifoldPoint) -> KernelValue:
    """C_M(x, y) for non-equivalent admissible points."""
    if equivalent(m, x, y):
        raise DiagonalError("Cauchy kernel undefined on the diagonal")

    j, k = x.chart, y.chart
    if j == k:
        tag = SAME_CHART
        y_in_j = y.coord
    else:
        # y may map to the far pole of chart j (INFINITY); embed handles it
        tag = OVERLAP_REP if classify(m, y) == NECK else CROSS_GLUE
        y_in_j = apply_transition(m, y.coord)
    xs = embed(m, x)
    ys = embed(m, ManifoldPoint(j, y_in_j))
    base = cauchy_kernel_G(xs - ys, m.n, m.n + 1)
    if j == k:
        return KernelValue(base, tag)
    w = weight_J(chart_transfer(m, j, k), embed(m, y))
    return KernelValue(w * base, tag)


def overlap_consistency_residual(m: GluedManifold, x: ManifoldPoint, y: ManifoldPoint) -> float:
    """Both points in the neck: the kernel covariance residual of the
    chart-2 -> chart-1 transfer between the points' chart-2 and chart-1
    embeddings. Each point is read in chart 1 first (a chart-2 point through
    the transition, as kernel_CM reads it), then carried to chart 2."""
    if classify(m, x) != NECK or classify(m, y) != NECK:
        raise ManifoldError("overlap consistency needs both points in the neck")
    x1, y1 = (p.coord if p.chart == 1 else apply_transition(m, p.coord) for p in (x, y))
    e1x, e1y = (embed(m, ManifoldPoint(1, c)) for c in (x1, y1))
    e2x, e2y = (embed(m, ManifoldPoint(2, apply_transition(m, c))) for c in (x1, y1))
    return covariance_residual(chart_transfer(m, 1, 2), e2x, e2y, e1x, e1y)
