"""The mutant catalogue: each mutant rebinds one module binding, in the
(owner, attribute, replacement) form of cli.CONTROLS, and is applied by the
same cli.patched. Every suite run the catalogue names passes without its
mutant and must fail with it, so each check is shown able to fail
(mutation testing: DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).

Mutants that no suite catches are findings for the program, not entries
here with a loosened expectation.
"""
import functools

import numpy as np
import pytest

from sphereglue import cli, integration


def _node_geometry_mutant(change):
    """integration.node_geometry with its NodeGeometry passed through change."""
    return lambda node_geometry: lambda m, s, t: change(node_geometry(m, s, t))


def _runs(suite, kinds=("two_spheres", "plane_sphere"), ns=(2, 3)):
    return [(suite, kind, n) for kind in kinds for n in ns]


# name -> (owner, attribute, replacement built from the bound value), and
# the runs (suite, kind, n) that must fail under it
MUTANTS = {
    "normals-scaled-by-1.001": (
        (integration, "node_geometry", _node_geometry_mutant(lambda geo: geo._replace(normal=geo.normal * 1.001))),
        _runs("verify-cauchy"),
    ),
    "node-weights-squared": (
        (integration, "node_geometry", _node_geometry_mutant(lambda geo: geo._replace(weight=geo.weight**2))),
        _runs("verify-cauchy") + _runs("hardy", ns=(2,)),
    ),
    "fft-derivative-zeroed": (
        (integration, "_fft_derivative", lambda _: lambda values, period: np.zeros_like(values)),
        _runs("hardy", ns=(2,)),
    ),
    # W := 1, the scalar-1 rows; on plane_sphere chart 1 is the plane, where
    # the lift weight is 1 already
    "lift-weight-dropped": (
        (integration, "_lift_weight", lambda _: lambda m, coord: np.tile(np.eye(2 << m.n)[0], (*coord.shape[:-1], 1))),
        _runs("verify-cauchy", kinds=("two_spheres",)),
    ),
}


def _config(suite, kind, n):
    # hardy at the order of its golden report and of perfbench's hardy-n2
    return cli.RunConfig(kind=kind, n=n, order=64 if suite == "hardy" else 256)


@functools.cache
def _plain_status(suite, kind, n):
    return cli.run_suite(suite, _config(suite, kind, n))[1]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_named_run_fails_under_its_mutant(name):
    row, targets = MUTANTS[name]
    for target in targets:
        assert _plain_status(*target) == 0, target
        with cli.patched([row]):
            text, status = cli.run_suite(target[0], _config(*target))
        assert status == 1 and "result=fail" in text, target
