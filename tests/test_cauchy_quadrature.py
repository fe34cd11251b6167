"""cauchy_integrals: the Cauchy integrals of several sections at several
orders for one target, over one surface in one pass.

One call stacks the nodes of its orders and their halves, evaluates node
geometry, the weighted h = w n f of every section and the kernel once each
over that stack, and applies the kernel to h by blades (_blade_apply), one
block of the stack at a time; every integral of its grid must equal a
standalone cauchy_integral bit for bit and a node-by-node rule sum of
kernel_CM(x_j, y) n_j f_j to rounding. The call counts pin what verify-cauchy
shares, and that cauchy_integral keeps nothing between calls.
"""
import numpy as np
import pytest

from sphereglue import cli, integration, kernel
from sphereglue.algebra import gp_batch, vectors
from sphereglue.fields import constant_field, g_translate
from sphereglue.integration import (
    _blade_apply,
    _gauss_nodes,
    cauchy_integral,
    cauchy_integrals,
    chart_circle,
    chart_sphere,
    node_geometry,
    section_from_germ,
    unit_sphere_area,
)
from sphereglue.kernel import kernel_CM
from sphereglue.manifold import ManifoldError, ManifoldPoint, plane_sphere, two_spheres

TARGETS = {
    "same-chart": (1, [1.2, 0.4, 0.1]),
    "overlap-rep": (2, [1.0, 0.5, 0.1]),
    "cross-glue": (2, [2.5, 1.0, 0.2]),
}
# verify-cauchy's same-chart order and cross-glue ladder
LADDERS = {2: (128, (32, 64, 128, 256)), 3: (48, (16, 32, 64))}


def _setup(kind, n, scale1=1.0):
    m = two_spheres(n, 2.0, (scale1, 1.0)) if kind == "two_spheres" else plane_sphere(n, 2.0)
    interior = ManifoldPoint(1, np.eye(n)[0] * 0.6)
    make = chart_circle if n == 2 else chart_sphere
    surf = make(m, 1, np.zeros(n), 3.0, LADDERS[n][0], interior=interior)
    sections = (
        section_from_germ(m, g_translate(np.eye(n)[0] * 4.0, n=n, dim_alg=n + 1)),
        section_from_germ(m, constant_field(np.eye(2 ** (n + 1))[0], n)),
    )
    targets = [ManifoldPoint(chart, coord[:n]) for chart, coord in TARGETS.values()]
    return m, surf, sections, targets


def _normal_sign(sign):
    """The patches that run the quadratures with the reproducing normal sign
    `sign`: none for the true sign -1, the break_normal row for +1."""
    return [(*cli.CONTROLS["break_normal"], 1)] if sign > 0 else []


@pytest.mark.parametrize("normal_sign", [-1.0, 1.0])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
@pytest.mark.parametrize("n", [2, 3])
def test_shared_quadrature_matches_standalone_calls_bit_for_bit(n, kind, normal_sign):
    for scale1 in (1.0, 1.5) if kind == "two_spheres" else (1.0,):
        m, surf, sections, targets = _setup(kind, n, scale1)
        # the surface order and the whole ladder (at n = 2 the surface order
        # is on it too), and a section given twice, in one grid per target
        orders = (surf.quad_order, *LADDERS[n][1])
        grid_sections = (*sections, sections[0])
        for y in targets:
            with cli.patched(_normal_sign(normal_sign)):
                grid = cauchy_integrals(m, surf, y, grid_sections, orders)
                standalone = [[cauchy_integral(m, surf, f, y, order=od) for od in orders] for f in grid_sections]
            assert grid.value.shape == (len(grid_sections), len(orders), 1 << (n + 1))
            for i, row in enumerate(standalone):
                for o, alone in enumerate(row):
                    assert np.array_equal(grid.value[i, o], alone.value.coeffs)
                    assert grid.estimated_error[i, o] == alone.estimated_error
                    assert grid.nodes_used[o] == alone.nodes_used


def _rule_sum(m, surf, f, y, order, normal_sign):
    """(1/omega_n) sum_j w_j kernel_CM(x_j, y) n_j f(x_j) over the order's
    nodes, one node at a time."""
    dim = m.n + 1
    t, w = _gauss_nodes(surf.bounds, order)
    geo = node_geometry(m, surf, t)
    total = np.zeros(1 << dim)
    for j, x in enumerate(geo.point.coord):
        xj = ManifoldPoint(surf.chart, x)
        kn = gp_batch(dim, kernel_CM(m, xj, y).coeffs, vectors(normal_sign * geo.normal[j], dim))
        total += w[j] * geo.weight[j] * gp_batch(dim, kn, f.value_at(xj).coeffs)
    return total / unit_sphere_area(m.n)


@pytest.mark.parametrize("normal_sign", [-1.0, 1.0])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
@pytest.mark.parametrize("n", [2, 3])
def test_blade_apply_matches_the_node_by_node_rule_sum(n, kind, normal_sign):
    """The one boundary operator (kernel blades applied to h = w n f, J_y on
    the left afterwards) gives the rule sum of C_M(x_j, y) n_j f_j, and its
    error estimate is the distance to the half-order sum, for every kernel
    case (same-chart, overlap-rep, cross-glue)."""
    m, surf, sections, targets = _setup(kind, n)
    order = 16 if n == 2 else 8
    for y in targets:
        with cli.patched(_normal_sign(normal_sign)):
            grid = cauchy_integrals(m, surf, y, sections, [order])
        assert grid.nodes_used.tolist() == [order ** (n - 1)]
        for f, value, error in zip(sections, grid.value[:, 0], grid.estimated_error[:, 0]):
            full, half = (_rule_sum(m, surf, f, y, od, normal_sign) for od in (order, order // 2))
            scale = np.linalg.norm(full)
            assert np.linalg.norm(value - full) <= 1e-13 * scale
            assert abs(error - np.linalg.norm(full - half)) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [3, 4])
def test_blade_apply_is_the_sum_of_grade_1_products(dim):
    """_blade_apply(dim, kb, h)[t] = sum_j (sum_b kb[b, t, j] e_b) h_j, for
    node rows of one element (the Cauchy sum) and of two (Plemelj's [g | W])."""
    rng = np.random.default_rng(dim)
    kb = rng.normal(size=(dim, 5, 7))
    for h in (rng.normal(size=(7, 1 << dim)), rng.normal(size=(7, 2, 1 << dim))):
        got = _blade_apply(dim, kb, h)
        assert got.shape == (5,) + h.shape[1:]
        for t in range(5):
            k_rows = vectors(kb[:, t].T, dim).reshape((7,) + (1,) * (h.ndim - 2) + (1 << dim,))
            want = gp_batch(dim, k_rows, h).sum(axis=0)
            assert np.allclose(got[t], want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_default_order_is_the_surface_order():
    m, surf, (f, _), targets = _setup("two_spheres", 2)
    alone = cauchy_integral(m, surf, f, targets[0])
    grid = cauchy_integrals(m, surf, targets[0], [f], [surf.quad_order])
    assert np.array_equal(alone.value.coeffs, grid.value[0, 0])
    assert alone.nodes_used == surf.quad_order


class Counts:
    """Counts node-geometry, kernel and section-array evaluations (calls of
    representatives on a point array, each for any number of sections), and
    keeps the number of nodes each one covers, for a section array with its
    number of sections."""

    def __init__(self, monkeypatch):
        self.geometry = self.kernel = self.section = 0
        self.nodes = {"geometry": [], "kernel": [], "section": []}
        geometry, kernel = integration.node_geometry, integration._kernel_pairs
        representatives = integration.representatives

        def count_geometry(m, s, t):
            self.geometry += 1
            self.nodes["geometry"].append(len(t))
            return geometry(m, s, t)

        def count_kernel(m, x, y, *pairs):
            self.kernel += 1
            self.nodes["kernel"].append(len(x.coord))
            return kernel(m, x, y, *pairs)

        def count_representatives(m, p, germs):
            if np.ndim(p.coord) > 1:
                self.section += 1
                self.nodes["section"].append((len(p.coord), len(germs)))
            return representatives(m, p, germs)

        monkeypatch.setattr(integration, "node_geometry", count_geometry)
        monkeypatch.setattr(integration, "_kernel_pairs", count_kernel)
        monkeypatch.setattr(integration, "representatives", count_representatives)


def test_inadmissible_target_is_named(monkeypatch):
    """An inadmissible target fails the call before anything is evaluated."""
    m, surf, sections, _ = _setup("two_spheres", 2)
    counts = Counts(monkeypatch)
    with pytest.raises(ManifoldError, match=r"evaluation point \[0\.1, 0\.0\] in chart 2 is inadmissible"):
        cauchy_integrals(m, surf, ManifoldPoint(2, [0.1, 0.0]), sections, [32, 64])
    assert (counts.geometry, counts.kernel, counts.section) == (0, 0, 0)


def test_each_evaluation_covers_every_order_and_half_once(monkeypatch):
    """Orders 64, 16 and 32 and their halves 32, 8 and 16 are the node sets
    8, 16, 32 and 64: one stack of 120 nodes, over which the geometry and
    the kernel are evaluated once each, and the two sections in one array."""
    m, surf, (f, g), (y, _, _) = _setup("two_spheres", 2)
    counts = Counts(monkeypatch)
    grid = cauchy_integrals(m, surf, y, [f, g], [64, 16, 32])
    assert counts.nodes == {"geometry": [120], "kernel": [120], "section": [(120, 2)]}
    assert grid.nodes_used.tolist() == [64, 16, 32]


@pytest.mark.parametrize(
    "n, order, expected",
    [
        # one call per target and contour, so one node set, kernel and
        # section array each, the radius-3 same-chart call's array holding
        # both of its sections; that call and the radius-2.4 one stack
        # orders 128 and 64, the cross-glue ladder 16, 32, 64 and 128
        (2, "128", ((3, 3, 3), [192, 240, 192])),
        # n = 3 at the default config: order 48 (and 24) for the same-chart
        # calls, the ladder 16, 32, 64 and its halves for the cross-glue one
        (3, "256", ((3, 3, 3), [2880, 5440, 2880])),
    ],
)
def test_verify_cauchy_shares_nodes_kernels_and_sections(tmp_path, monkeypatch, n, order, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n={n}\n")
    counts = Counts(monkeypatch)
    status = cli.main(["verify-cauchy", "--config", str(cfg), "--order", order, "--out", str(tmp_path / "r.txt")])
    assert status == 0
    calls, nodes = expected
    assert (counts.geometry, counts.kernel, counts.section) == calls
    assert counts.nodes["geometry"] == counts.nodes["kernel"] == nodes
    assert counts.nodes["section"] == list(zip(nodes, (2, 1, 1)))


def test_cauchy_integral_keeps_nothing_between_calls(monkeypatch):
    m, surf, (f, _), targets = _setup("two_spheres", 2)
    counts = Counts(monkeypatch)
    first = cauchy_integral(m, surf, f, targets[0], order=32)
    assert (counts.geometry, counts.kernel, counts.section) == (1, 1, 1)
    second = cauchy_integral(m, surf, f, targets[0], order=32)
    assert (counts.geometry, counts.kernel, counts.section) == (2, 2, 2)
    assert np.array_equal(first.value.coeffs, second.value.coeffs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_target_weight_is_read_through_one_binding(kind, n):
    """J_y has one binding, kernel._target_weight: a patch that doubles it
    doubles, bit for bit, the cross-chart kernel, the chart-2 representative
    of a section and the Cauchy integral at a chart-2 target."""
    m, surf, (sec, _), targets = _setup(kind, n)
    x, y = ManifoldPoint(1, np.eye(n)[0] * 3.0), targets[2]

    def values():
        grid = cauchy_integrals(m, surf, y, [sec], [16])
        return kernel_CM(m, x, y).coeffs, sec.value_at(y).coeffs, grid.value[0, 0]

    before = values()
    with cli.patched([(kernel, "_target_weight", lambda weight: lambda *args: 2.0 * weight(*args))]):
        after = values()
    for name, old, new in zip(("kernel", "section", "integral"), before, after):
        assert np.array_equal(new, 2.0 * old), name


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_lift_weight_is_evaluated_once_per_point_set(kind, n, monkeypatch):
    """verify-cauchy evaluates W once per point set: on the node stacks of
    its three grids, once at y_same for both of its sections and once at
    y_cross. hardy evaluates it once on its nodes, for the regularizing
    section of plemelj_projections, and its data (a section's value_at)
    reads that W. On a plane chart 1, where W is the scalar 1, the sections
    read no W, and only the regularizing section evaluates it."""
    lift, calls = integration._lift_weight, []
    monkeypatch.setattr(integration, "_lift_weight", lambda m, coord: calls.append(1) or lift(m, coord))
    counts = {"verify-cauchy": 5, "hardy": 1} if kind == "two_spheres" else {"verify-cauchy": 0, "hardy": 1}
    # hardy runs at n = 2 only
    for suite, expected in counts.items() if n == 2 else [("verify-cauchy", counts["verify-cauchy"])]:
        calls.clear()
        assert cli.run_suite(suite, cli.RunConfig(kind=kind, n=n))[1] == 0
        assert len(calls) == expected, suite
