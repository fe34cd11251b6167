"""Moebius transformations in Vahlen form, conformal weights and the
Euclidean Cauchy kernel.

A VahlenMap is the map (ax+b)(cx+d)^{-1} of R^k, stored as one read-only
coefficient array (2, 2, 2^k) of the Cl_k rows [[a, b], [c, d]] and a
kernel exponent; k = ambient_dim is read off the array's shape. An array
(..., 2, 2, 2^k) is a stack of maps of one k and exponent: apply,
weight_J(_rows), covariance_residual and compose take stacks, whose axes
broadcast (numpy rules) against the batch axes (...) of the points;
pseudo_determinant is then an array; inverse takes one map.

The conformal weight J(psi, x) = ~(cx+d) / ||cx+d||^m uses the per-map
exponent m (kernel_exponent); for every map constructed here m equals the
dimension of the manifold the map serves, also when the algebra is Cl_{n+1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    DEFAULT_RTOL,
    clifford_group_inverse,
    clifford_group_inverse_rows,
    gp_batch,
    reversion,
    row_norms,
    vectors,
)


class VahlenError(ValueError):
    pass


class SingularPointError(VahlenError):
    pass


@dataclass(frozen=True)
class VahlenMap:
    """The map (ax+b)(cx+d)^{-1}, or a stack of them: coeffs (..., 2, 2, 2^k),
    read-only, holds the Cl_k rows [[a, b], [c, d]] of each map."""

    coeffs: np.ndarray
    kernel_exponent: int

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.float64)
        if c.ndim < 3 or c.shape[-3:-1] != (2, 2) or c.shape[-1] < 2 or c.shape[-1].bit_count() != 1:
            raise VahlenError(f"coefficients must have shape (..., 2, 2, 2^k), got {c.shape}")
        if self.kernel_exponent < 1:
            raise VahlenError("kernel_exponent must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def ambient_dim(self) -> int:
        return self.coeffs.shape[-1].bit_length() - 1

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """a, b, c, d, each of shape (..., 2^k) over the stack's axes."""
        return tuple(self.coeffs[..., i, j, :] for i in (0, 1) for j in (0, 1))

    @cached_property
    def pseudo_determinant(self):
        """a~d - b~c, computed once: a float for one map, an array (...) for a stack."""
        k = self.ambient_dim
        a, b, c, d = self.rows
        delta = gp_batch(k, a, reversion(k, d)) - gp_batch(k, b, reversion(k, c))
        s = delta[..., 0]
        if (row_norms(delta[..., 1:]) > DEFAULT_RTOL * np.maximum(abs(s), 1.0)).any():
            raise VahlenError("a~d - b~c is not scalar: not a valid Vahlen matrix")
        return float(s) if s.ndim == 0 else s

    @cached_property
    def weight_scale(self) -> np.ndarray:
        """sqrt|a~d - b~c| per map (shape (...)), as Python's abs(pd) ** 0.5:
        libm pow, which rounds differently from np.sqrt at pd = 1 - 2^-53."""
        pd = np.asarray(self.pseudo_determinant)
        return np.reshape([abs(p) ** 0.5 for p in pd.ravel().tolist()], pd.shape)


def _scalar_matrix(a: float, b: float, c: float, d: float, k: int) -> np.ndarray:
    """Coefficients (2, 2, 2^k) of the matrix [[a, b], [c, d]] with scalar entries."""
    out = np.zeros((2, 2, 1 << k))
    out[..., 0] = [[a, b], [c, d]]
    return out


def identity_map(k: int, m: int | None = None) -> VahlenMap:
    return VahlenMap(_scalar_matrix(1.0, 0.0, 0.0, 1.0, k), m if m is not None else k)


def translation_map(t: np.ndarray, k: int | None = None, m: int | None = None) -> VahlenMap:
    """x -> x + t for an offset t (m,), or the stack of these maps for a
    stack of offsets (..., m); k defaults to m."""
    t = np.asarray(t, dtype=np.float64)
    if k is None:
        k = t.shape[-1]
    coeffs = np.broadcast_to(_scalar_matrix(1.0, 0.0, 0.0, 1.0, k), t.shape[:-1] + (2, 2, 1 << k)).copy()
    coeffs[..., 0, 1, :] = vectors(t, k)
    return VahlenMap(coeffs, m if m is not None else k)


def neck_inversion(k: int, m: int | None = None) -> VahlenMap:
    """x -> -x^{-1}, the annulus-identifying involution."""
    return VahlenMap(_scalar_matrix(0.0, -1.0, 1.0, 0.0, k), m if m is not None else k)


def cayley(n: int, scale: float = 1.0) -> VahlenMap:
    """scale (e_{n+1} x + 1)(x + e_{n+1})^{-1}: R^n onto the sphere of radius
    scale in R^{n+1} minus scale e_{n+1}. Lives in Cl_{n+1} with weight
    exponent n."""
    if n < 1:
        raise VahlenError("n must be >= 1")
    coeffs = _scalar_matrix(0.0, 1.0, 1.0, 0.0, n + 1)
    coeffs[0, 0, 1 << n] = coeffs[1, 1, 1 << n] = 1.0
    coeffs[0] *= scale
    return VahlenMap(coeffs, n)


def _points(x, k: int) -> np.ndarray:
    """x as a float array of points (..., m) with m <= k."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] > k:
        raise VahlenError(f"point of dim {x.shape[-1]} exceeds ambient dim {k}")
    return x


class Images(NamedTuple):
    """apply's result for a point array (..., m): the images (..., k), NaN
    where the map sends the point to infinity; finite (...), False exactly
    there; valid (...), False where a finite image fails the grade-1 check of
    a Vahlen map. A single point (m,) gives 0-d masks."""

    points: np.ndarray
    finite: np.ndarray
    valid: np.ndarray


def apply(psi: VahlenMap, x, raise_invalid: bool = True) -> Images:
    """(ax+b)(cx+d)^{-1} at every point of an array (..., m), m <= ambient_dim.

    A point maps to infinity, a NaN image row, where cx+d is negligible or
    not invertible. With raise_invalid (the default) a finite image that is
    not grade-1 raises VahlenError; callers that judge rows one by one pass
    False and read Images.valid instead.
    """
    k = psi.ambient_dim
    a, b, c, d = psi.rows
    xv = vectors(_points(x, k), k)
    num = gp_batch(k, a, xv) + b
    den = gp_batch(k, c, xv) + d
    tiny = 1e-12 * np.maximum(row_norms(c) * row_norms(xv) + row_norms(d), 1.0)
    dinv, invertible = clifford_group_inverse_rows(k, den)
    finite = (row_norms(den) > tiny) & invertible
    points, dev, valid = _grade1(k, gp_batch(k, num, dinv))
    valid |= ~finite
    if raise_invalid and not valid.all():
        raise VahlenError(f"image of {first_point(x, ~valid)} is off grade 1 by {dev[~valid].max():.3e}")
    return Images(np.where(finite[..., None], points, np.nan), finite, valid)


def _grade1(k: int, res: np.ndarray):
    """Vector parts of coefficient rows (..., 2^k), the norm of everything
    outside grade 1, and whether that stays within the grade-1 tolerance."""
    blades = [1 << j for j in range(k)]
    rest = np.ones(res.shape[-1], dtype=bool)
    rest[blades] = False
    dev = row_norms(res[..., rest])
    return res[..., blades], dev, dev <= np.maximum(DEFAULT_RTOL * np.maximum(row_norms(res), 1.0), 1e-9)


def first_point(x, mask=True) -> str:
    """For error messages: the first point of x (..., m), or of its broadcast
    against mask (...), where mask holds."""
    x, mask = np.asarray(x, dtype=np.float64), np.asarray(mask)
    return str(np.broadcast_to(x, mask.shape + x.shape[-1:])[mask][0].tolist())


def weight_J(psi: VahlenMap, x) -> np.ndarray:
    """~(cx+d)/||cx+d||^m, m the map's kernel exponent, at every point of an
    array (..., m), m <= ambient_dim, as coefficient arrays
    (..., 2^ambient_dim); raises if it is singular at any point."""
    w, regular = weight_J_rows(psi, x)
    if not regular.all():
        raise SingularPointError(f"cx+d vanishes: conformal weight singular at {first_point(x, ~regular)}")
    return w


def weight_J_rows(psi: VahlenMap, x):
    """The weight at every point of an array (..., m) and a mask (...), False
    where it is singular; those rows hold no weight.

    The coefficients are first rescaled so that |a~d - b~c| = 1; the weight is
    then independent of the (projective) scale of the stored matrix.
    """
    k = psi.ambient_dim
    x = _points(x, k)
    _, _, c, d = psi.rows
    nu = psi.weight_scale[..., None]
    den = (gp_batch(k, c, vectors(x, k)) + d) / nu
    s = row_norms(den)[..., None]
    scale = np.maximum((row_norms(c) * row_norms(x) + row_norms(d))[..., None] / nu, 1.0)
    regular = s > 1e-12 * scale
    return reversion(k, den) / np.where(regular, s, 1.0) ** psi.kernel_exponent, regular[..., 0]


def compose(psi2: VahlenMap, psi1: VahlenMap) -> VahlenMap:
    """Matrix product, broadcast over the stacks; pointwise, compose(psi2,
    psi1) maps x to psi2(psi1(x))."""
    if (psi2.ambient_dim, psi2.kernel_exponent) != (psi1.ambient_dim, psi1.kernel_exponent):
        raise VahlenError("cannot compose maps of different ambient dims or kernel exponents")
    blocks = gp_batch(psi1.ambient_dim, psi2.coeffs[..., None, :], psi1.coeffs[..., None, :, :, :])
    return VahlenMap(blocks.sum(-3), psi1.kernel_exponent)


def invertible(psi: VahlenMap) -> VahlenMap:
    """psi, once its pseudo-determinant clears the floor 1e-14 that inverse needs."""
    if abs(psi.pseudo_determinant) <= 1e-14:
        raise VahlenError("Vahlen matrix has vanishing pseudo-determinant")
    return psi


def inverse(psi: VahlenMap) -> VahlenMap:
    """Exact matrix inverse (~d, -~b; -~c, ~a)/(a~d - b~c) of one map,
    checked by the matrix identity inv psi = I: every entry within
    DEFAULT_RTOL of the identity's, so inv(psi(x)) = x at every point."""
    if psi.coeffs.ndim != 3:
        raise VahlenError(f"inverse takes one map, got a stack of shape {psi.coeffs.shape[:-3]}")
    delta = invertible(psi).pseudo_determinant
    k = psi.ambient_dim
    (a, b), (c, d) = reversion(k, psi.coeffs) / delta
    inv = VahlenMap(np.array([[d, -b], [-c, a]]), psi.kernel_exponent)
    if np.abs(compose(inv, psi).coeffs - _scalar_matrix(1.0, 0.0, 0.0, 1.0, k)).max() > DEFAULT_RTOL:
        raise VahlenError("matrix inverse fails inv psi = I: not a valid Vahlen matrix")
    return inv


def cauchy_kernel_G(x, n: int, dim: int | None = None) -> np.ndarray:
    """x / ||x||^n for every vector of an array (..., m), as coefficient
    arrays in Cl_dim (dim = m unless given); raises if any vector is zero.

    ||x|| sums the squares along the row, in the order of kernel._kernel_pairs'
    blade-major einsum, so both evaluations of G agree bit for bit;
    algebra.row_norms rounds differently on about one row in ten."""
    x = np.asarray(x, dtype=np.float64)
    r = np.sqrt((x * x).sum(-1, keepdims=True))
    if (r == 0.0).any():
        raise SingularPointError("Cauchy kernel singular at the origin")
    return vectors(x / r**n, dim if dim is not None else x.shape[-1])


def covariance_residual(psi: VahlenMap, x, y, px, py):
    """|| G(px - py) - sgn * J(psi,y)^{-1} G(x-y) (~J(psi,x))^{-1} || with
    px = psi(x), py = psi(y): the Moebius covariance of the Cauchy kernel,
    one residual per pair for point arrays (..., k).

    sgn is the sign of the pseudo-determinant a~d - b~c: matrices with
    negative pseudo-determinant (e.g. the Cayley transform) satisfy the
    identity with an overall minus sign. The reversion sits on the weight at
    x; on maps whose weights have grade <= 1 either placement holds, on
    compositions with even-grade weights only this one does.
    """
    m = psi.kernel_exponent
    k = psi.ambient_dim
    lhs = cauchy_kernel_G(np.subtract(px, py), m, k)
    jy_inv = clifford_group_inverse(k, weight_J(psi, y))
    jx_inv = clifford_group_inverse(k, reversion(k, weight_J(psi, x)))
    mid = cauchy_kernel_G(np.subtract(x, y), m, k)
    sgn = np.where(psi.pseudo_determinant > 0, 1.0, -1.0)[..., None]
    return row_norms(lhs - sgn * gp_batch(k, gp_batch(k, jy_inv, mid), jx_inv))


def cayley_embed(x) -> np.ndarray:
    """Closed form of the Cayley image of points x of shape (..., n): the
    unit-sphere points (-2x + (||x||^2 - 1) e_{n+1}) / (||x||^2 + 1). Agrees
    with apply(cayley(n), x).points."""
    x = np.asarray(x, dtype=np.float64)
    rho2 = (x * x).sum(-1, keepdims=True)
    return np.concatenate((-2.0 * x, rho2 - 1.0), axis=-1) / (rho2 + 1.0)
