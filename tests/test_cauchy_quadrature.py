"""One CauchyQuadrature serving many integrals over one surface.

A shared quadrature evaluates node sets, kernels and section values once and
reuses them; every integral it gives must equal a standalone cauchy_integral
bit for bit. The call counts pin what verify-cauchy shares, and that
cauchy_integral keeps nothing between calls.
"""
import numpy as np
import pytest

from sphereglue import cli, integration
from sphereglue.fields import constant_field, g_translate
from sphereglue.integration import (
    CauchyQuadrature,
    Section,
    cauchy_integral,
    chart_circle,
    chart_sphere,
    section_from_germ,
)
from sphereglue.manifold import ManifoldError, ManifoldPoint, plane_sphere, two_spheres

TARGETS = {
    "same-chart": (1, [1.2, 0.4, 0.1]),
    "overlap-rep": (2, [1.0, 0.5, 0.1]),
    "cross-glue": (2, [2.5, 1.0, 0.2]),
}
ORDERS = {2: (32, 64, 16), 3: (8, 16)}


def _setup(kind, n):
    m = two_spheres(n, 2.0) if kind == "two_spheres" else plane_sphere(n, 2.0)
    interior = ManifoldPoint(1, np.eye(n)[0] * 0.6)
    make = chart_circle if n == 2 else chart_sphere
    surf = make(m, 1, np.zeros(n), 3.0, ORDERS[n][0], interior=interior)
    sections = (
        section_from_germ(m, g_translate(np.eye(n)[0] * 4.0, n=n, dim_alg=n + 1)),
        section_from_germ(m, constant_field(np.eye(2 ** (n + 1))[0], n)),
    )
    targets = [ManifoldPoint(chart, coord[:n]) for chart, coord in TARGETS.values()]
    return m, surf, sections, targets


@pytest.mark.parametrize("normal_sign", [-1.0, 1.0])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
@pytest.mark.parametrize("n", [2, 3])
def test_shared_quadrature_matches_standalone_calls_bit_for_bit(n, kind, normal_sign):
    m, surf, sections, targets = _setup(kind, n)
    quad = CauchyQuadrature(m, surf, normal_sign)
    # every order twice, sections and targets interleaved, so later
    # integrals reuse what earlier ones evaluated
    for order in ORDERS[n] * 2:
        for y in targets:
            for f in sections:
                shared = quad.integral(f, y, order)
                alone = cauchy_integral(m, surf, f, y, order=order, normal_sign=normal_sign)
                assert np.array_equal(shared.value.coeffs, alone.value.coeffs)
                assert shared.estimated_error == alone.estimated_error
                assert shared.nodes_used == alone.nodes_used


def test_default_order_is_the_surface_order():
    m, surf, (f, _), targets = _setup("two_spheres", 2)
    shared = CauchyQuadrature(m, surf).integral(f, targets[0])
    alone = cauchy_integral(m, surf, f, targets[0], order=surf.quad_order)
    assert np.array_equal(shared.value.coeffs, alone.value.coeffs)


def test_inadmissible_target_is_named():
    m, surf, (f, _), _ = _setup("two_spheres", 2)
    with pytest.raises(ManifoldError, match=r"evaluation point \[0\.1, 0\.0\] in chart 2 is inadmissible"):
        CauchyQuadrature(m, surf).integral(f, ManifoldPoint(2, [0.1, 0.0]))


class Counts:
    """Counts node-geometry, kernel and section-array evaluations."""

    def __init__(self, monkeypatch):
        self.geometry = self.kernel = self.section = 0
        geometry, kernel, value_at = integration.node_geometry, integration.kernel_CM, Section.value_at

        def count_geometry(*args):
            self.geometry += 1
            return geometry(*args)

        def count_kernel(*args):
            self.kernel += 1
            return kernel(*args)

        def count_value_at(sec, p):
            self.section += np.ndim(p.coord) > 1
            return value_at(sec, p)

        monkeypatch.setattr(integration, "node_geometry", count_geometry)
        monkeypatch.setattr(integration, "kernel_CM", count_kernel)
        monkeypatch.setattr(Section, "value_at", count_value_at)


@pytest.mark.parametrize(
    "n, order, expected",
    [
        # n = 2, order 128: 4 orders on the radius-3 contour and 2 on the
        # radius-2.4 one; kernels for two targets, values for two sections
        (2, "128", (6, 8, 8)),
        # n = 3 at the default config (order 48 for the same-chart integrals)
        (3, "256", (8, 8, 10)),
    ],
)
def test_verify_cauchy_shares_nodes_kernels_and_sections(tmp_path, monkeypatch, n, order, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n={n}\n")
    counts = Counts(monkeypatch)
    status = cli.main(["verify-cauchy", "--config", str(cfg), "--order", order, "--out", str(tmp_path / "r.txt")])
    assert status == 0
    assert (counts.geometry, counts.kernel, counts.section) == expected


def test_cauchy_integral_keeps_nothing_between_calls(monkeypatch):
    m, surf, (f, _), targets = _setup("two_spheres", 2)
    counts = Counts(monkeypatch)
    first = cauchy_integral(m, surf, f, targets[0], order=32)
    assert (counts.geometry, counts.kernel, counts.section) == (2, 2, 2)
    second = cauchy_integral(m, surf, f, targets[0], order=32)
    assert (counts.geometry, counts.kernel, counts.section) == (4, 4, 4)
    assert np.array_equal(first.value.coeffs, second.value.coeffs)
