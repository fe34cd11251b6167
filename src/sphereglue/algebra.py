"""Dense multivector arithmetic for the Clifford algebra Cl_k with e_j^2 = -1.

Blades are indexed by bitmask: bit j set means the factor e_{j+1} is present,
factors in increasing order (the bitmap blades of Dorst, Fontijne & Mann,
Geometric Algebra for Computer Science, 2007). Coefficients live in a dense
numpy vector of length 2^k.

gp_batch, the one product, evaluates (ab)[l] = sum_i sign[i, l] a[i] b[i ^ l]
as one signed gather of b through _product_tables, b[..., perm] * sign, and
one np.einsum contraction over the blades of a. The contraction adds a's
blades into a zeroed output in increasing order, the order of a loop over
the blades, and the products are bit-identical to such a loop only because
numpy's einsum kernels keep that order (CI pins the numpy version); a matmul
sums in another order and moves last bits. The size rule counts elements of
the gather (2^k per element of b and contracted blade of a):
- up to _SKIP_FROM (2048) every blade of a is contracted, since finding a's
  zero blades (about 4 us) costs more than gathering them;
- above it, blades of a that are zero in every row are skipped where b is
  finite (a grade-1 a keeps k of its 2^k blades): their terms are then
  zeros, which leave the bits of a sum begun at +0 unchanged, whereas
  0 * inf would have made them NaN;
- above _BLOCK (16384 elements, 128 KB) the contraction runs in row blocks
  of at most that size, so no (rows, 2^k, 2^k) table is formed.
Measured at k = 4 on 2 CPUs, median per call: one 128 KB block beat 64 KB
and 256 KB ones on 436 and 8320 rows, and 512 KB ones by 2x on 436 rows;
one contraction over a whole (8320, 16, 16) gather took 5.5 ms where the
loop over a grade-1 a's blades took 3.4 ms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIM = 12

# The relative tolerance of the Clifford-group, Vahlen-matrix and grade-1 checks.
DEFAULT_RTOL = 1e-10

# gp_batch's size rule, in elements of b's signed gather (module docstring)
_SKIP_FROM = 1 << 11
_BLOCK = 1 << 14


class AlgebraError(ValueError):
    pass


class NotInvertibleError(AlgebraError):
    pass


@lru_cache(maxsize=None)
def _product_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """perm[i, l] = i ^ l and sign[i, l], the sign of blade i times blade
    i ^ l, so that (a b)[l] = sum_i sign[i, l] a[i] b[i ^ l]: one -1 for each
    transposition that moves the generators of blade i ^ l past those of
    blade i into order, and one for each shared generator (e_k^2 = -1)."""
    i = np.arange(1 << dim)[:, None]
    perm = i ^ i.T
    swaps = sum((((i >> s) & perm) >> b) & 1 for s in range(dim) for b in range(dim))
    return perm, np.where(swaps % 2, -1.0, 1.0)


@lru_cache(maxsize=None)
def _reversion_signs(dim: int) -> np.ndarray:
    grades = np.array([i.bit_count() for i in range(1 << dim)])
    return np.where((grades * (grades - 1) // 2) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class Multivector:
    """Element of Cl_dim, for single values at the report boundary; coeffs[i]
    is the coefficient of the bitmask-i blade."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise AlgebraError(f"dim must be in 1..{MAX_DIM}, got {self.dim}")
        c = np.array(self.coeffs, dtype=np.float64)
        if c.shape != (1 << self.dim,):
            raise AlgebraError(f"coefficient vector must have length {1 << self.dim}, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(row_norms(self.coeffs))

    def _check_dim(self, other: "Multivector"):
        if not isinstance(other, Multivector) or self.dim != other.dim:
            raise AlgebraError(f"operand must be a Multivector of dim {self.dim}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check_dim(other)
        return Multivector(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check_dim(other)
        return Multivector(self.dim, self.coeffs - other.coeffs)

    def __mul__(self, other: "Multivector") -> "Multivector":
        self._check_dim(other)
        return Multivector(self.dim, gp_batch(self.dim, self.coeffs, other.coeffs))


# -- operations ------------------------------------------------------------

def reversion(dim: int, a: np.ndarray) -> np.ndarray:
    """Reversion of every row of a coefficient array (..., 2^dim)."""
    return np.asarray(a, dtype=np.float64) * _reversion_signs(dim)


def clifford_group_inverse(dim: int, a: np.ndarray) -> np.ndarray:
    """Inverse of each row of (..., 2^dim) coefficients with a~a a nonzero
    scalar; raises if any row fails."""
    inv, ok = clifford_group_inverse_rows(dim, a)
    if not ok.all():
        raise NotInvertibleError("not invertible in Clifford group: a~a is not a nonzero scalar")
    return inv


def clifford_group_inverse_rows(dim: int, a: np.ndarray):
    """The inverse of each row of (..., 2^dim) coefficients and a mask (...),
    False where a~a is not a nonzero scalar; those rows hold no inverse."""
    a = np.asarray(a, dtype=np.float64)
    ar = reversion(dim, a)
    p = gp_batch(dim, a, ar)
    s, scale = p[..., 0], (a * a).sum(-1)
    ok = (scale > 0.0) & (abs(s) > DEFAULT_RTOL * scale)
    ok &= row_norms(p[..., 1:]) <= DEFAULT_RTOL * np.maximum(abs(s), scale)
    return ar / np.where(ok, s, 1.0)[..., None], ok


def row_norms(a: np.ndarray) -> np.ndarray:
    """The norm of each row of (..., m), as np.linalg.norm of that row: one
    BLAS dot over contiguous rows (a strided dot sums in another order)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def vectors(x, dim: int) -> np.ndarray:
    """Coefficient arrays (..., 2^dim) of the grade-1 elements with components
    x of shape (..., m), m <= dim; missing components are zero."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] > dim:
        raise AlgebraError("vector has more components than algebra generators")
    out = np.zeros(x.shape[:-1] + (1 << dim,))
    for j in range(x.shape[-1]):
        out[..., 1 << j] = x[..., j]
    return out


def gp_batch(dim: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric product of coefficient arrays of shape (..., 2^dim),
    broadcast over the leading axes: the one product of the package, which
    Multivector.__mul__ applies to single elements. One signed gather of b
    and one contraction over the blades of a in increasing order, under the
    size rule of the module docstring."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    perm, sign = _product_tables(dim)
    if b.size << dim > _SKIP_FROM and np.isfinite(b).all():
        blades = a.reshape(-1, 1 << dim).any(axis=0).nonzero()[0]
        if len(blades) < 1 << dim:
            a, perm, sign = a[..., blades], perm[blades], sign[blades]
    if b.size * len(perm) <= _BLOCK:
        return np.einsum("...i,...il->...l", a, b.take(perm, axis=-1) * sign)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.empty(shape + (1 << dim,))
    rows_a = np.broadcast_to(a, shape + a.shape[-1:]).reshape(-1, len(perm))
    rows_b = np.broadcast_to(b, shape + b.shape[-1:]).reshape(-1, 1 << dim)
    rows_out = out.reshape(-1, 1 << dim)
    step = max(_BLOCK // perm.size, 1)
    for start in range(0, len(rows_out), step):
        block = slice(start, start + step)
        np.einsum("ri,ril->rl", rows_a[block], rows_b[block].take(perm, axis=-1) * sign, out=rows_out[block])
    return out
