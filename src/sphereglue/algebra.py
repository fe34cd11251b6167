"""Dense multivector arithmetic for the Clifford algebra Cl_k with e_j^2 = -1.

Blades are indexed by bitmask: bit j set means the factor e_{j+1} is present,
factors in increasing order. Coefficients live in a dense numpy vector of
length 2^k.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_RTOL

MAX_DIM = 12


class AlgebraError(ValueError):
    pass


class NotInvertibleError(AlgebraError):
    pass


def _reorder_sign(i: int, j: int) -> int:
    # Transposition count for moving the generators of blade j past those of
    # blade i into canonical order, plus one -1 per shared generator (e_k^2=-1).
    s = 0
    a = i >> 1
    while a:
        s += (a & j).bit_count()
        a >>= 1
    s += (i & j).bit_count()
    return -1 if s & 1 else 1


@lru_cache(maxsize=None)
def _product_tables(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """perm[i, l] = i ^ l and sign[i, l], the sign of blade i times blade
    i ^ l, so that (a b)[l] = sum_i sign[i, l] a[i] b[i ^ l]."""
    n = 1 << dim
    perm = np.arange(n)[:, None] ^ np.arange(n)[None, :]
    sign = np.array([[_reorder_sign(i, i ^ l) for l in range(n)] for i in range(n)], dtype=np.float64)
    return perm, sign


@lru_cache(maxsize=None)
def _reversion_signs(dim: int) -> np.ndarray:
    grades = np.array([i.bit_count() for i in range(1 << dim)])
    return np.where((grades * (grades - 1) // 2) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class Multivector:
    """Element of Cl_dim; coeffs[i] is the coefficient of the bitmask-i blade."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise AlgebraError(f"dim must be in 1..{MAX_DIM}, got {self.dim}")
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (1 << self.dim,):
            raise AlgebraError(
                f"coefficient vector must have length {1 << self.dim}, got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(dim: int) -> "Multivector":
        return Multivector(dim, np.zeros(1 << dim))

    @staticmethod
    def scalar(value: float, dim: int) -> "Multivector":
        c = np.zeros(1 << dim)
        c[0] = value
        return Multivector(dim, c)

    @staticmethod
    def basis_vector(j: int, dim: int) -> "Multivector":
        c = np.zeros(1 << dim)
        c[1 << j] = 1.0
        return Multivector(dim, c)

    @staticmethod
    def vector(components, dim: int | None = None) -> "Multivector":
        """Embed a Euclidean vector as a grade-1 element; pads if dim exceeds
        the component count."""
        x = np.asarray(components, dtype=np.float64)
        dim = x.size if dim is None else dim
        return Multivector(dim, vectors(x, dim))

    # -- queries -----------------------------------------------------------
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def vector_part(self, n: int | None = None) -> np.ndarray:
        """Grade-1 components, first n of them (all generators by default)."""
        if n is None:
            n = self.dim
        return np.array([self.coeffs[1 << j] for j in range(n)])

    def grade(self, r: int) -> "Multivector":
        if not 0 <= r <= self.dim:
            raise AlgebraError(f"grade {r} out of range for dim {self.dim}")
        mask = np.array([i.bit_count() == r for i in range(1 << self.dim)])
        return Multivector(self.dim, np.where(mask, self.coeffs, 0.0))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def max_grade_deviation(self, r: int) -> float:
        """Norm of everything outside grade r."""
        return float(np.linalg.norm(self.coeffs - self.grade(r).coeffs))

    # -- arithmetic --------------------------------------------------------
    def _check_dim(self, other: "Multivector"):
        if self.dim != other.dim:
            raise AlgebraError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Multivector.scalar(other, self.dim)
        self._check_dim(other)
        return Multivector(self.dim, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Multivector.scalar(other, self.dim)
        self._check_dim(other)
        return Multivector(self.dim, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Multivector(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs * other)
        self._check_dim(other)
        return Multivector(self.dim, gp_batch(self.dim, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs / other)
        return NotImplemented


# -- operations ------------------------------------------------------------

def reversion(dim: int, a: np.ndarray) -> np.ndarray:
    """Reversion of every row of a coefficient array (..., 2^dim)."""
    return np.asarray(a, dtype=np.float64) * _reversion_signs(dim)


def clifford_group_inverse(dim: int, a: np.ndarray, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Inverse of each row of (..., 2^dim) coefficients with a~a a nonzero
    scalar; raises if any row fails."""
    inv, ok = clifford_group_inverse_rows(dim, a, rtol)
    if not ok.all():
        raise NotInvertibleError("not invertible in Clifford group: a~a is not a nonzero scalar")
    return inv


def clifford_group_inverse_rows(dim: int, a: np.ndarray, rtol: float = DEFAULT_RTOL):
    """The inverse of each row of (..., 2^dim) coefficients and a mask (...),
    False where a~a is not a nonzero scalar; those rows hold no inverse."""
    a = np.asarray(a, dtype=np.float64)
    ar = reversion(dim, a)
    p = gp_batch(dim, a, ar)
    s, scale = p[..., 0], (a * a).sum(-1)
    ok = (scale > 0.0) & (abs(s) > rtol * scale)
    ok &= np.sqrt((p[..., 1:] ** 2).sum(-1)) <= rtol * np.maximum(abs(s), scale)
    return ar / np.where(ok, s, 1.0)[..., None], ok


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
    in every row are skipped."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    perm, sign = _product_tables(dim)
    out = np.zeros(np.broadcast(a, b).shape)
    for i in a.reshape(-1, 1 << dim).any(axis=0).nonzero()[0]:
        out += a[..., i, None] * (sign[i] * b[..., perm[i]])
    return out
