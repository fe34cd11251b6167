"""Moebius transformations in Vahlen form, conformal weights and the
Euclidean Cauchy kernel.

A VahlenMap is the map (ax+b)(cx+d)^{-1} of R^k plus the point at infinity,
stored as one read-only coefficient array (2, 2, 2^k) of the Cl_k rows
[[a, b], [c, d]] and a kernel exponent; k = ambient_dim is read off the
array's shape. An array (..., 2, 2, 2^k) is a stack of maps of one k and
exponent: apply, weight_J(_rows), covariance_residual and compose take
stacks, whose axes broadcast (numpy rules) against the batch axes (...) of
the points; pseudo_determinant is then an array; inverse takes one map.
Multivector remains only for the values a report reads (Section.value_at of
one point, QuadratureReport.value, the PlemeljResult rows), with
construction, .coeffs, .norm(), +, - and the product of two.

The conformal weight J(psi, x) = ~(cx+d) / ||cx+d||^m uses the per-map
exponent m (kernel_exponent); for every map constructed here m equals the
dimension of the manifold the map serves, also when the algebra is Cl_{n+1}.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import (
    clifford_group_inverse,
    clifford_group_inverse_rows,
    gp_batch,
    reversion,
    vectors,
)
from .config import DEFAULT_RTOL


class _Infinity:
    """The distinguished point of the one-point compactification."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def is_infinity(p) -> bool:
    return p is INFINITY


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
        if (_norms(delta[..., 1:]) > DEFAULT_RTOL * np.maximum(abs(s), 1.0)).any():
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
    t = np.asarray(t, dtype=np.float64)
    if k is None:
        k = t.size
    coeffs = _scalar_matrix(1.0, 0.0, 0.0, 1.0, k)
    coeffs[0, 1] = vectors(t, k)
    return VahlenMap(coeffs, m if m is not None else k)


def neck_inversion(k: int, m: int | None = None) -> VahlenMap:
    """x -> -x^{-1}, the annulus-identifying involution."""
    return VahlenMap(_scalar_matrix(0.0, -1.0, 1.0, 0.0, k), m if m is not None else k)


def cayley(n: int, m: int | None = None, scale: float = 1.0) -> VahlenMap:
    """scale (e_{n+1} x + 1)(x + e_{n+1})^{-1}: R^n onto the sphere of radius
    scale in R^{n+1} minus scale e_{n+1}. Lives in Cl_{n+1} with weight
    exponent n unless m is given."""
    if n < 1:
        raise VahlenError("n must be >= 1")
    coeffs = _scalar_matrix(0.0, 1.0, 1.0, 0.0, n + 1)
    coeffs[0, 0, 1 << n] = coeffs[1, 1, 1 << n] = 1.0
    coeffs[0] *= scale
    return VahlenMap(coeffs, m if m is not None else n)


def _points(x, k: int) -> np.ndarray:
    """x as a float array of points (..., m) with m <= k."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] > k:
        raise VahlenError(f"point of dim {x.shape[-1]} exceeds ambient dim {k}")
    return x


class Images(NamedTuple):
    """apply's result for a point array (..., m): the images (..., k), NaN
    where the map sends the point to INFINITY; finite (...), False exactly
    there; valid (...), False where a finite image fails the grade-1 check of
    a Vahlen map. A single point or INFINITY gives 0-d masks."""

    points: np.ndarray
    finite: np.ndarray
    valid: np.ndarray


def apply(psi: VahlenMap, x, rtol: float = DEFAULT_RTOL, raise_invalid: bool = True) -> Images:
    """(ax+b)(cx+d)^{-1} at every point of an array (..., m), m <= ambient_dim,
    or ac^{-1} at INFINITY.

    A point maps to INFINITY where cx+d is negligible or not invertible. With
    raise_invalid (the default) a finite image that is not grade-1 raises
    VahlenError; callers that judge rows one by one pass False and read
    Images.valid instead.
    """
    k = psi.ambient_dim
    a, b, c, d = psi.rows
    if is_infinity(x):
        num, den, tiny = a, c, 0.0
    else:
        xv = vectors(_points(x, k), k)
        num = gp_batch(k, a, xv) + b
        den = gp_batch(k, c, xv) + d
        tiny = 1e-12 * np.maximum(_norms(c) * _norms(xv) + _norms(d), 1.0)
    dinv, invertible = clifford_group_inverse_rows(k, den, rtol)
    finite = (_norms(den) > tiny) & invertible
    points, dev, valid = _grade1(k, gp_batch(k, num, dinv), rtol)
    valid |= ~finite
    if raise_invalid and not valid.all():
        raise VahlenError(f"image of {first_point(x, ~valid)} is off grade 1 by {dev[~valid].max():.3e}")
    return Images(np.where(finite[..., None], points, np.nan), finite, valid)


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt((a * a).sum(-1))


def _grade1(k: int, res: np.ndarray, rtol: float):
    """Vector parts of coefficient rows (..., 2^k), the norm of everything
    outside grade 1, and whether that stays within the grade-1 tolerance."""
    blades = [1 << j for j in range(k)]
    rest = np.ones(res.shape[-1], dtype=bool)
    rest[blades] = False
    dev = _norms(res[..., rest])
    return res[..., blades], dev, dev <= np.maximum(rtol * np.maximum(_norms(res), 1.0), 1e-9)


def first_point(x, mask=True) -> str:
    """For error messages: the first point of x (..., m), or of its broadcast
    against mask (...), where mask holds; INFINITY names itself."""
    if is_infinity(x):
        return repr(x)
    x, mask = np.asarray(x, dtype=np.float64), np.asarray(mask)
    return str(np.broadcast_to(x, mask.shape + x.shape[-1:])[mask][0].tolist())


def weight_J(psi: VahlenMap, x) -> np.ndarray:
    """~(cx+d)/||cx+d||^m, m the map's kernel exponent, at every point of an
    array (..., m), m <= ambient_dim, as coefficient arrays
    (..., 2^ambient_dim); raises if it is singular at any point."""
    if is_infinity(x):
        raise SingularPointError("weight undefined at INFINITY")
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
    s = _norms(den)[..., None]
    scale = np.maximum((_norms(c) * _norms(x) + _norms(d))[..., None] / nu, 1.0)
    regular = s > 1e-12 * scale
    return reversion(k, den) / np.where(regular, s, 1.0) ** psi.kernel_exponent, regular[..., 0]


def compose(psi2: VahlenMap, psi1: VahlenMap) -> VahlenMap:
    """Matrix product, broadcast over the stacks; pointwise, compose(psi2,
    psi1) maps x to psi2(psi1(x))."""
    if (psi2.ambient_dim, psi2.kernel_exponent) != (psi1.ambient_dim, psi1.kernel_exponent):
        raise VahlenError("cannot compose maps of different ambient dims or kernel exponents")
    blocks = gp_batch(psi1.ambient_dim, psi2.coeffs[..., None, :], psi1.coeffs[..., None, :, :, :])
    return VahlenMap(blocks.sum(-3), psi1.kernel_exponent)


def inverse(psi: VahlenMap) -> VahlenMap:
    """Exact matrix inverse (~d, -~b; -~c, ~a)/(a~d - b~c) of one map,
    validated pointwise on sample vectors."""
    if psi.coeffs.ndim != 3:
        raise VahlenError(f"inverse takes one map, got a stack of shape {psi.coeffs.shape[:-3]}")
    delta = psi.pseudo_determinant
    if abs(delta) <= 1e-14:
        raise VahlenError("Vahlen matrix has vanishing pseudo-determinant")
    k = psi.ambient_dim
    (a, b), (c, d) = reversion(k, psi.coeffs) / delta
    inv = VahlenMap(np.array([[d, -b], [-c, a]]), psi.kernel_exponent)
    # blocks of as many points as are still unchecked: a one-point loop
    # reaches every point of such a block, so this checks the same points
    rng = np.random.default_rng(7)
    need = 4
    while need:
        x = rng.uniform(-1.5, 1.5, (need, k))
        back = apply(inv, apply(psi, x).points)
        far = _norms(back.points - x) > 1e-8 * np.maximum(1.0, _norms(x))
        if (far & back.finite).any():
            raise VahlenError("block-rearranged inverse failed pointwise validation")
        need -= int(back.finite.sum())
    return inv


def cauchy_kernel_G(x, n: int, dim: int | None = None) -> np.ndarray:
    """x / ||x||^n for every vector of an array (..., m), as coefficient
    arrays in Cl_dim (dim = m unless given); raises if any vector is zero."""
    x = np.asarray(x, dtype=np.float64)
    r = np.sqrt((x * x).sum(-1, keepdims=True))
    if (r == 0.0).any():
        raise SingularPointError("Cauchy kernel singular at the origin")
    return vectors(x / r**n, dim if dim is not None else x.shape[-1])


def covariance_residual(psi: VahlenMap, x, y, px, py, weight_exponent_shift: int = 0):
    """|| G(px - py) - sgn * J(psi,y)^{-1} G(x-y) (~J(psi,x))^{-1} || with
    px = psi(x), py = psi(y): the Moebius covariance of the Cauchy kernel,
    one residual per pair for point arrays (..., k).

    sgn is the sign of the pseudo-determinant a~d - b~c: matrices with
    negative pseudo-determinant (e.g. the Cayley transform) satisfy the
    identity with an overall minus sign. The reversion sits on the weight at
    x; on maps whose weights have grade <= 1 either placement holds, on
    compositions with even-grade weights only this one does.

    weight_exponent_shift perturbs only the exponent inside the J factors
    (leaving the kernel exponent alone); nonzero values are falsification
    controls and must make the residual large.
    """
    m = psi.kernel_exponent
    k = psi.ambient_dim
    lhs = cauchy_kernel_G(np.subtract(px, py), m, k)
    psi_w = psi
    if weight_exponent_shift:
        psi_w = dataclasses.replace(psi, kernel_exponent=m + weight_exponent_shift)
    jy_inv = clifford_group_inverse(k, weight_J(psi_w, y))
    jx_inv = clifford_group_inverse(k, reversion(k, weight_J(psi_w, x)))
    mid = cauchy_kernel_G(np.subtract(x, y), m, k)
    sgn = np.where(psi.pseudo_determinant > 0, 1.0, -1.0)[..., None]
    diff = lhs - sgn * gp_batch(k, gp_batch(k, jy_inv, mid), jx_inv)
    return np.sqrt((diff * diff).sum(-1))


def cayley_embed(x, n: int | None = None) -> np.ndarray:
    """Closed form of the Cayley image of points x of shape (..., n): the
    unit-sphere points (-2x + (||x||^2 - 1) e_{n+1}) / (||x||^2 + 1). Agrees
    with apply(cayley(n), x).points; INFINITY maps to e_{n+1} (pass n for it)."""
    if is_infinity(x):
        if n is None:
            raise VahlenError("n required to embed the point at infinity")
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    x = np.asarray(x, dtype=np.float64)
    rho2 = (x * x).sum(-1, keepdims=True)
    return np.concatenate((-2.0 * x, rho2 - 1.0), axis=-1) / (rho2 + 1.0)


def cayley_embed_jacobian(x) -> np.ndarray:
    """(..., n+1, n) Jacobians of cayley_embed at finite points (..., n)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    rho2 = (x * x).sum(-1)[..., None, None]
    num = np.concatenate((-2.0 * x, rho2[..., 0] - 1.0), axis=-1)
    dnum = np.concatenate(
        (np.broadcast_to(-2.0 * np.eye(n), x.shape[:-1] + (n, n)), 2.0 * x[..., None, :]), axis=-2
    )
    return dnum / (rho2 + 1.0) - num[..., :, None] * (2.0 * x[..., None, :]) / (rho2 + 1.0) ** 2
