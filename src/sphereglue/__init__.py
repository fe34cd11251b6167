"""Clifford-algebra Moebius geometry and Cauchy-kernel verification on
glued-sphere manifolds."""
