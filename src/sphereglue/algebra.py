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
def _sign_table(dim: int) -> np.ndarray:
    n = 1 << dim
    table = np.empty((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(n):
            table[i, j] = _reorder_sign(i, j)
    return table


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
        if dim is None:
            dim = x.size
        if x.size > dim:
            raise AlgebraError("vector has more components than algebra generators")
        c = np.zeros(1 << dim)
        for j in range(x.size):
            c[1 << j] = x[j]
        return Multivector(dim, c)

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
        out = np.zeros_like(self.coeffs)
        signs = _sign_table(self.dim)
        idx = np.arange(out.size)
        for i in np.nonzero(self.coeffs)[0]:
            out[i ^ idx] += self.coeffs[i] * (signs[i] * other.coeffs)
        return Multivector(self.dim, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs / other)
        return NotImplemented


# -- operations ------------------------------------------------------------

def reversion(a: Multivector) -> Multivector:
    return Multivector(a.dim, a.coeffs * _reversion_signs(a.dim))


def kelvin_inverse(x: np.ndarray) -> np.ndarray:
    """Clifford inverse of a nonzero Euclidean vector: -x / ||x||^2."""
    x = np.asarray(x, dtype=np.float64)
    n2 = float(x @ x)
    if n2 == 0.0:
        raise AlgebraError("zero vector has no Kelvin inverse")
    return -x / n2


def clifford_group_inverse(a: Multivector, rtol: float = DEFAULT_RTOL) -> Multivector:
    """Inverse of an element with a * ~a equal to a nonzero scalar."""
    ar = reversion(a)
    p = a * ar
    s = p.scalar_part()
    scale = a.norm() ** 2
    if scale == 0.0 or abs(s) <= rtol * scale:
        raise NotInvertibleError("not invertible in Clifford group: a~a scalar too small")
    if p.max_grade_deviation(0) > rtol * max(abs(s), scale):
        raise NotInvertibleError("not invertible in Clifford group: a~a is not a scalar")
    return ar / s


def gp_batch(dim: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched geometric product of coefficient arrays of shape (..., 2^dim),
    broadcast over the leading axes; the sign/xor scatter of
    Multivector.__mul__ applied to every row at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    signs = _sign_table(dim)
    idx = np.arange(1 << dim)
    for i in range(1 << dim):
        out[..., i ^ idx] += a[..., i, None] * (signs[i] * b)
    return out
