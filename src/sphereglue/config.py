"""Central numeric tolerances.

All residual checks in the library are relative and default to this single
knob.
"""

DEFAULT_RTOL = 1e-10

# Step for finite-difference Dirac residuals.
DEFAULT_FD_STEP = 1e-4
