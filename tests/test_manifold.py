"""Glued manifolds: region classification, transitions and their
continuations, embeddings, and the sphere-level chart transfer."""
import dataclasses

import numpy as np
import pytest

from sphereglue import cli, manifold, moebius
from sphereglue.manifold import (
    BODY,
    INADMISSIBLE,
    NECK,
    Chart,
    GluedManifold,
    ManifoldError,
    ManifoldPoint,
    apply_transition,
    chart_transfer,
    chart_map,
    classify,
    embed,
    embed_differential,
    plane_sphere,
    two_spheres,
)
from sphereglue.moebius import VahlenError, apply, cayley_embed, inverse, neck_inversion, weight_J


@pytest.fixture
def m2():
    return two_spheres(2, 2.0)


def e1(*vals):
    return np.array(vals, dtype=np.float64)


# -- construction ------------------------------------------------------------


def test_radius_must_exceed_one():
    with pytest.raises(ManifoldError):
        two_spheres(2, 1.0)


def test_manifold_needs_exactly_two_charts():
    """Points, transitions and transfers know only charts 1 and 2."""
    for charts in ((Chart(True),), (Chart(True), Chart(True), Chart(False))):
        with pytest.raises(ManifoldError, match="need exactly two charts"):
            GluedManifold(2, 2.0, charts)


# -- classify ----------------------------------------------------------------


def test_classify_regions(m2):
    assert classify(m2, ManifoldPoint(1, e1(3.0, 0.0))) == BODY
    assert classify(m2, ManifoldPoint(1, e1(1.0, 0.0))) == NECK
    assert classify(m2, ManifoldPoint(1, e1(0.3, 0.0))) == INADMISSIBLE


# -- transition and continuation ---------------------------------------------


def test_transition_values(m2):
    psi = neck_inversion(m2.n)
    assert np.allclose(apply(psi, e1(1.0, 0.0)).points, [1.0, 0.0])
    got = apply(psi, e1(1.5, 0.0)).points
    assert np.allclose(got, [2.0 / 3.0, 0.0])
    assert 0.5 < np.linalg.norm(got) < 2.0


def test_transition_involution(m2):
    psi = neck_inversion(m2.n)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(0.55, 1.9, 2) * rng.choice([-1, 1], 2)
        assert np.allclose(apply(psi, apply(psi, x).points).points, x, atol=1e-12)


def test_continuation_extends_to_cap(m2):
    psi = neck_inversion(m2.n)
    assert np.allclose(apply(psi, e1(0.25, 0.0)).points, [4.0, 0.0])
    assert np.allclose(apply_transition(m2, e1(0.25, 0.0)), [4.0, 0.0])


def test_transition_norm_reciprocal(m2):
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0.55, 1.9, 2) * rng.choice([-1, 1], 2)
        assert abs(
            np.linalg.norm(apply_transition(m2, x)) - 1.0 / np.linalg.norm(x)
        ) <= 1e-12


# -- embeddings --------------------------------------------------------------


def test_embed_poles(m2):
    assert np.allclose(embed(m2, ManifoldPoint(1, np.zeros(2))), [0, 0, -1])
    assert np.allclose(embed(m2, ManifoldPoint(1, e1(1e9, 0.0))), [0, 0, 1])


def test_embed_unit_norm(m2):
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-4, 4, 2)
        assert abs(np.linalg.norm(embed(m2, ManifoldPoint(1, x))) - 1.0) <= 1e-12


def test_plane_chart_embedding():
    mp = plane_sphere(2, 2.0)
    u = embed(mp, ManifoldPoint(1, e1(1.5, -2.0)))
    assert np.allclose(u, [1.5, -2.0, 0.0])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_embed_differential_fd(kind, n):
    """E'(x) v on stacks of points and vectors, in both charts (a sphere
    chart of scale 1.5), against central differences of embed; and the
    conformal identity |E'(x) v| = lambda |v| that node_geometry relies on,
    with lambda = 2s / (1 + |x|^2) on a sphere chart of scale s and 1 on the
    plane chart."""
    if kind == "two_spheres":
        m = two_spheres(n, 2.0, scales=(1.5, 1.0))
    else:
        m = plane_sphere(n, 2.0, sphere_scale=1.5)
    x, v = np.random.default_rng(n).uniform(-1.5, 1.5, (2, 20, n))
    h = 1e-6
    for chart in (1, 2):
        d = embed_differential(m, chart, x, v)
        fd = (embed(m, ManifoldPoint(chart, x + h * v)) - embed(m, ManifoldPoint(chart, x - h * v))) / (2 * h)
        assert d.shape == (20, n + 1)
        assert np.allclose(d, fd, atol=1e-8)
        ch = m.chart(chart)
        lam = 2.0 * ch.scale / (1.0 + (x * x).sum(-1)) if ch.has_sphere else 1.0
        assert np.allclose(np.linalg.norm(d, axis=-1), lam * np.linalg.norm(v, axis=-1), rtol=1e-12, atol=0.0)


def test_scaled_chart_embedding():
    ms = two_spheres(2, 2.0, scales=(1.0, 1.5))
    u = embed(ms, ManifoldPoint(2, np.zeros(2)))
    assert np.allclose(u, [0, 0, -1.5])


# -- chart transfer ----------------------------------------------------------


def test_chart_transfer_connects_embeddings(m2):
    """transfer(1<-2) carries embedded chart-2 neck points onto the embedded
    chart-1 representative of the same manifold point."""
    t12 = chart_transfer(m2, 1, 2)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x2 = rng.uniform(0.55, 1.9, 2) * rng.choice([-1, 1], 2)
        u2 = embed(m2, ManifoldPoint(2, x2))
        x1 = apply_transition(m2, x2)
        u1 = embed(m2, ManifoldPoint(1, x1))
        assert np.allclose(apply(t12, u2).points, u1, atol=1e-10)


def test_chart_transfer_inverse_pair(m2):
    from sphereglue.moebius import compose

    t12 = chart_transfer(m2, 1, 2)
    t21 = chart_transfer(m2, 2, 1)
    comp = compose(t12, t21)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = embed(m2, ManifoldPoint(1, rng.uniform(-2, 2, 2)))
        assert np.allclose(apply(comp, u).points, u, atol=1e-12)


def test_chart_transfer_same_chart_is_identity(m2):
    t = chart_transfer(m2, 1, 1)
    u = e1(0.2, 0.3, 0.1)
    assert np.allclose(apply(t, u).points, u)


def test_chart_transfer_plane_sphere():
    mp = plane_sphere(2, 2.0)
    t12 = chart_transfer(mp, 1, 2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x2 = rng.uniform(0.55, 1.9, 2) * rng.choice([-1, 1], 2)
        u2 = embed(mp, ManifoldPoint(2, x2))
        u1 = embed(mp, ManifoldPoint(1, apply_transition(mp, x2)))
        assert np.allclose(apply(t12, u2).points, u1, atol=1e-10)


# -- chart maps ---------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "make",
    [
        lambda n: two_spheres(n, 2.0),
        lambda n: two_spheres(n, 2.0, (1.5, 0.7)),
        lambda n: plane_sphere(n, 2.0),
        lambda n: plane_sphere(n, 2.0, 1.8),
    ],
)
def test_chart_map_matches_embed(make, n):
    """chart_map(m, j) agrees with embed; for a sphere chart, chart_map(m, -j)
    carries the embedded point back to its chart coordinates."""
    m = make(n)
    rng = np.random.default_rng(8)
    for j in (1, 2):
        psi = chart_map(m, j)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, n)
            u = embed(m, ManifoldPoint(j, x))
            assert np.allclose(apply(psi, x).points, u, atol=1e-12)
            if m.chart(j).has_sphere:
                assert np.allclose(apply(chart_map(m, -j), u).points, np.append(x, 0.0), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["two_spheres", "plane_sphere"])
def test_one_point_is_its_row_of_a_point_array(kind, n):
    """A single point (n,) takes the path of a point array: classify, embed,
    apply_transition and cayley_embed at chart coordinates, and weight_J of
    every chart map and transfer at embedded points, give each point what
    they give its row of a (3, 4) array, bit for bit."""
    m = two_spheres(n, 2.0, (1.5, 1.0)) if kind == "two_spheres" else plane_sphere(n, 2.0)
    x = np.random.default_rng(9).uniform(-3.0, 3.0, (3, 4, n))
    u = embed(m, ManifoldPoint(1, x))
    maps = [chart_map(m, 1), chart_map(m, 2)] + [chart_transfer(m, a, b) for a in (1, 2) for b in (1, 2)]
    cases = [(x, lambda p, j=j: classify(m, ManifoldPoint(j, p))) for j in (1, 2)]
    cases += [(x, lambda p, j=j: embed(m, ManifoldPoint(j, p))) for j in (1, 2)]
    cases += [(x, lambda p: apply_transition(m, p)), (x, cayley_embed)]
    cases += [(u, lambda p, psi=psi: weight_J(psi, p)) for psi in maps]
    for case, (points, f) in enumerate(cases):
        whole = f(points)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(whole[idx], f(points[idx])), (case, idx)


def test_vahlen_maps_built_once(m2):
    assert chart_transfer(m2, 1, 2) is chart_transfer(m2, 1, 2)
    assert chart_map(m2, 1) is chart_map(m2, 1)


def test_unknown_map_keys_raise_key_error(m2):
    """Only the maps a manifold has are keys: no chart 3, no inverse of a
    plane chart's map, no transfer from chart 0."""
    plane = plane_sphere(2, 2.0)
    for read in (lambda: chart_map(m2, 3), lambda: chart_map(plane, -1), lambda: chart_transfer(m2, 1, 0)):
        with pytest.raises(KeyError):
            read()


def test_degenerate_neck_raises_where_it_is_read():
    """At scale1/scale2 = 1e-14 the neck transfer has no inverse: reading
    either transfer raises VahlenError, every time, while the chart maps and
    their inverses, which do not need it, are built."""
    m = two_spheres(2, 2.0, (1e-7, 1e7))
    assert all(chart_map(m, j).kernel_exponent == 2 for j in (1, 2, -1, -2))
    for to, frm in ((1, 2), (1, 2), (2, 1)):
        with pytest.raises(VahlenError, match="vanishing pseudo-determinant"):
            chart_transfer(m, to, frm)


# (suite, kind) -> the moebius.inverse calls of one run at order 64
INVERSES = {
    ("hardy", "two_spheres"): 1,
    ("hardy", "plane_sphere"): 0,
    ("verify-cauchy", "two_spheres"): 2,
    ("verify-cauchy", "plane_sphere"): 1,
    ("verify-kernel", "two_spheres"): 1,
    ("verify-kernel", "plane_sphere"): 1,
}


@pytest.mark.parametrize("suite, kind", sorted(INVERSES))
def test_a_run_inverts_only_the_maps_it_reads(suite, kind, monkeypatch):
    """Each Vahlen map is built when first read: hardy reads the inverse of
    chart 1's map where chart 1 is a sphere, verify-kernel the neck transfer
    (1, 2) and verify-cauchy both; no suite reads (2, 1)."""
    calls = []
    monkeypatch.setattr(manifold, "inverse", lambda psi: calls.append(1) or inverse(psi))
    assert cli.run_suite(suite, cli.RunConfig(kind=kind, order=64))[1] == 0
    assert len(calls) == INVERSES[suite, kind]


def test_hardy_evaluates_one_conformal_weight(monkeypatch):
    """hardy on two_spheres evaluates one conformal weight, W at its nodes,
    which its data and the regularizing section share."""
    rows, calls = moebius.weight_J_rows, []
    monkeypatch.setattr(moebius, "weight_J_rows", lambda psi, x: calls.append(1) or rows(psi, x))
    assert cli.run_suite("hardy", cli.RunConfig(order=64))[1] == 0
    assert len(calls) == 1


def test_weight_shift_reaches_every_map():
    """Every chart map and transfer has weight exponent n, and under the
    break_weight control its weight J takes exponent n + 1 at every point."""
    m = plane_sphere(2, 2.0)
    maps = [chart_map(m, 1), chart_map(m, 2), chart_map(m, -2)] + [
        chart_transfer(m, a, b) for a in (1, 2) for b in (1, 2)
    ]
    assert {psi.kernel_exponent for psi in maps} == {2}
    x = np.array([[0.3, -1.2, 0.7], [2.0, 0.5, -0.4]])
    shifted = [weight_J(dataclasses.replace(psi, kernel_exponent=3), x) for psi in maps]
    with cli.patched([(*cli.CONTROLS["break_weight"], 1)]):
        assert all(np.array_equal(weight_J(psi, x), want) for psi, want in zip(maps, shifted))
