"""Clifford-algebra Moebius geometry and Cauchy-kernel verification on
glued-sphere manifolds."""

from .algebra import Multivector, reversion
from .moebius import INFINITY, VahlenMap, apply, cayley, compose, inverse, weight_J
from .manifold import GluedManifold, ManifoldPoint, plane_sphere, two_spheres
from .kernel import KernelValue, kernel_CM

__all__ = [
    "Multivector",
    "reversion",
    "INFINITY",
    "VahlenMap",
    "apply",
    "cayley",
    "compose",
    "inverse",
    "weight_J",
    "GluedManifold",
    "ManifoldPoint",
    "plane_sphere",
    "two_spheres",
    "KernelValue",
    "kernel_CM",
]

__version__ = "0.1.0"
