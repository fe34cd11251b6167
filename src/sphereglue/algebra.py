"""Dense multivector arithmetic for the Clifford algebra Cl_k with e_j^2 = -1.

Blades are indexed by bitmask: bit j set means the factor e_{j+1} is present,
factors in increasing order. Coefficients live in a dense numpy vector of
length 2^k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DIM = 12

# The relative tolerance of the Clifford-group, Vahlen-matrix and grade-1 checks.
DEFAULT_RTOL = 1e-10


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
    Multivector.__mul__ applies to single elements. Blades of a that are zero
    in every row are skipped; all terms share one buffer, not a temporary each."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    perm, sign = _product_tables(dim)
    out = np.zeros(np.broadcast(a, b).shape)
    term = np.empty_like(out)
    for i in a.reshape(-1, 1 << dim).any(axis=0).nonzero()[0]:
        signed = b[..., perm[i]]
        signed *= sign[i]
        out += np.multiply(a[..., i, None], signed, term)
    return out
