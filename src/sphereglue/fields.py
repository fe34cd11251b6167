"""Clifford-valued fields, finite-difference Dirac operators and the
Moebius pullback that preserves monogenicity."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import gp_batch, row_norms, vectors
from .moebius import VahlenMap, apply, cauchy_kernel_G, first_point, weight_J

# Step for finite-difference Dirac residuals.
DEFAULT_FD_STEP = 1e-4


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class CliffordField:
    """A pure map from R^dim_in to Cl_{dim_alg} with an explicit domain
    predicate (stencil safety for finite differences). func and domain take
    a point (dim_in,) or a point array (..., dim_in); func returns coefficient
    arrays (..., 2^dim_alg) and domain a boolean per point."""

    dim_in: int
    dim_alg: int
    func: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], object] = field(default=lambda x: True)

    def values(self, x) -> np.ndarray:
        """The field's coefficients at every point of x; raises if any point
        lies outside the domain."""
        x = np.asarray(x, dtype=np.float64)
        inside = np.broadcast_to(self.domain(x), x.shape[:-1])
        if not inside.all():
            raise DomainError(f"point {first_point(x, ~inside)} outside field domain")
        return self.func(x)


def constant_field(a, dim_in: int) -> CliffordField:
    """x -> a on R^dim_in, for the coefficients a (2^dim_alg,) of one element."""
    a = np.array(a, dtype=np.float64)
    dim_alg = a.size.bit_length() - 1
    return CliffordField(dim_in, dim_alg, lambda x: np.broadcast_to(a, x.shape[:-1] + a.shape))


def g_translate(a: np.ndarray, n: int | None = None, dim_alg: int | None = None) -> CliffordField:
    """x -> G(x - a) = (x-a)/||x-a||^n on R^m minus {a}, for a pole a of
    shape (m,), or a stack of poles (..., m) that broadcasts against x."""
    a = np.asarray(a, dtype=np.float64)
    if n is None:
        n = a.shape[-1]
    if dim_alg is None:
        dim_alg = a.shape[-1]
    return CliffordField(
        a.shape[-1],
        dim_alg,
        lambda x: cauchy_kernel_G(x - a, n, dim_alg),
        domain=lambda x: row_norms(x - a) > 1e-12,
    )


def fd_stencil(x, h: float) -> np.ndarray:
    """The central-difference stencils of every point of x (..., dim) at steps
    h_0 = h and h_1 = h/2, shape (..., 2, 2, dim, dim):
    [..., s, 0, j, :] = x + h_s e_j, [..., s, 1, j, :] = x - h_s e_j."""
    x = np.asarray(x, dtype=np.float64)[..., None, None, :]
    steps = np.multiply.outer((h, h / 2.0), np.eye(x.shape[-1]))
    return np.stack((x + steps, x - steps), axis=-3)


def dirac_left_fd(f: CliffordField, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Dirac operator sum_j e_j d f / dx_j from central differences at steps
    h and h/2 with one Richardson step; O(h^4). Coefficient arrays
    (..., 2^dim_alg) for a point or a point array (..., dim_in); every
    stencil point of every point of x is evaluated in one field call."""
    x = np.asarray(x, dtype=np.float64)
    if h <= 0:
        raise ValueError("step must be positive")
    stencil = fd_stencil(x, h)
    inside = np.broadcast_to(f.domain(stencil), stencil.shape[:-1]).all((-3, -2, -1))
    if not inside.all():
        raise DomainError(f"finite-difference stencil of {first_point(x, ~inside)} exits the field domain")
    return dirac_from_stencil(f.func(stencil), h)


def dirac_from_stencil(vals: np.ndarray, h: float) -> np.ndarray:
    """dirac_left_fd from a field's values (..., 2, 2, dim, 2^dim_alg) at the
    points of fd_stencil(x, h): coefficient arrays (..., 2^dim_alg)."""
    dim, dim_alg = vals.shape[-2], vals.shape[-1].bit_length() - 1
    diff = (vals[..., 0, :, :] - vals[..., 1, :, :]) / (2.0 * np.array([h, h / 2.0])[:, None, None])
    # one Richardson step, (4 D_{h/2} - D_h) / 3, cancels the O(h^2) term
    diff = (4.0 * diff[..., 1, :, :] - diff[..., 0, :, :]) / 3.0
    # sum over j of e_j d_j, as one batched product
    return gp_batch(dim_alg, vectors(np.eye(dim), dim_alg), diff).sum(-2)


def moebius_pullback(psi: VahlenMap, f: CliffordField) -> CliffordField:
    """x -> J(psi, x) f(psi(x)); preserves left monogenicity.

    The pullback takes the field's input dimension, capped by the map's
    ambient dimension. Domain and values take point arrays; an image that
    fails the map's grade-1 check raises VahlenError from either.
    """
    if f.dim_alg != psi.ambient_dim:
        raise ValueError("field algebra dim must match the map's ambient dim")

    def dom(x: np.ndarray) -> np.ndarray:
        img = apply(psi, x)
        return img.finite & f.domain(img.points[..., : f.dim_in])

    def ev(x: np.ndarray) -> np.ndarray:
        img = apply(psi, x)
        if not img.finite.all():
            raise DomainError("pullback evaluated at a singular point of the map")
        return gp_batch(psi.ambient_dim, weight_J(psi, x), f.values(img.points[..., : f.dim_in]))

    return CliffordField(min(f.dim_in, psi.ambient_dim), psi.ambient_dim, ev, dom)
