"""Clifford-algebra Moebius geometry and Cauchy-kernel verification on
glued-sphere manifolds."""

__version__ = "0.1.0"
