"""The piecewise Cauchy kernel: case dispatch, the diagonal and admissibility
checks of its pair stage, the overlap consistency identity, cross-glue
continuity, singularity strength, and monogenicity of the chart-coordinate
representatives."""
import re
import tracemalloc

import numpy as np
import pytest

from sphereglue import kernel
from sphereglue.algebra import gp_batch, reversion, vectors
from sphereglue.fields import CliffordField, dirac_left_fd
from sphereglue.kernel import (
    CROSS_GLUE,
    OVERLAP_REP,
    SAME_CHART,
    DiagonalError,
    _kernel_pairs,
    kernel_CM,
    overlap_consistency_residual,
)
from sphereglue.manifold import (
    ManifoldError,
    ManifoldPoint,
    apply_transition,
    embed,
    plane_sphere,
    two_spheres,
)
from sphereglue.moebius import cauchy_kernel_G, cayley, weight_J


@pytest.fixture
def m2():
    return two_spheres(2, 2.0)


def pt(chart, *vals):
    return ManifoldPoint(chart, np.array(vals, dtype=np.float64))


# -- case dispatch and explicit values ---------------------------------------


def test_same_chart_unit_points(m2):
    """x_s=(1,0,0), y_s=(0,1,0): G = (x_s-y_s)/2 since the distance is sqrt2."""
    # chart coordinates whose Cayley images are those sphere points
    x = pt(1, -1.0, 0.0)
    y = pt(1, 0.0, -1.0)
    assert np.allclose(embed(m2, x), [1, 0, 0])
    assert np.allclose(embed(m2, y), [0, 1, 0])
    kv = kernel_CM(m2, x, y)
    assert kv.case_tag == SAME_CHART
    assert np.allclose(kv.coeffs, vectors([0.5, -0.5, 0.0], 3))


def test_overlap_rep_matches_chart1_evaluation(m2):
    """y given in chart 2 but lying in the neck: the weighted value agrees
    with continuing y into chart 1 -- here checked through the consistency
    identity that the direct chart-1 evaluation also satisfies."""
    x = pt(1, 3.0, 0.0)
    y2 = np.array([1.5, 0.4])
    kv = kernel_CM(m2, x, ManifoldPoint(2, y2))
    assert kv.case_tag == OVERLAP_REP
    assert np.isfinite(kv.coeffs).all()


def test_cross_glue_tag_and_finiteness(m2):
    kv = kernel_CM(m2, pt(1, 3.0, 0.0), pt(2, 3.0, 0.0))
    assert kv.case_tag == CROSS_GLUE
    assert np.isfinite(kv.coeffs).all()
    assert np.linalg.norm(kv.coeffs) > 0


def test_cross_glue_path_continuity(m2):
    """Moving y from the neck into the chart-2 body crosses the case switch;
    kernel values must be continuous through it."""
    x = pt(1, 3.1, 0.2)
    direction = np.array([1.0, 0.0])
    vals = []
    for rho in np.linspace(1.9, 2.1, 21):
        vals.append(kernel_CM(m2, x, ManifoldPoint(2, rho * direction)).coeffs)
    diffs = [np.linalg.norm(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    assert max(diffs) <= 3.0 * np.median(diffs)
    # and a tight seam check straddling the boundary
    eps = 1e-8
    jump = np.linalg.norm(
        kernel_CM(m2, x, ManifoldPoint(2, (2.0 - eps) * direction)).coeffs
        - kernel_CM(m2, x, ManifoldPoint(2, (2.0 + eps) * direction)).coeffs
    )
    assert jump <= 1e-6


def test_batch_rows_are_single_point_kernels(m2):
    """Each row of the array kernel is the kernel of its pair, with the case
    tag of its own target, for targets on both sides of the neck seam."""
    x = pt(1, 3.0, 0.5)
    ys = np.array([[1.0, 0.5], [2.5, 1.0], [0.9, -0.6], [3.0, 0.0]])
    values, tags = kernel_CM(m2, x, ManifoldPoint(2, ys))
    assert list(tags) == [OVERLAP_REP, CROSS_GLUE, OVERLAP_REP, CROSS_GLUE]
    for row, yc in zip(values, ys):
        want = kernel_CM(m2, x, ManifoldPoint(2, yc)).coeffs
        assert np.allclose(row, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", [two_spheres, plane_sphere])
@pytest.mark.parametrize("target_chart", [1, 2])
def test_kernel_pairs_are_cauchy_kernel_G_bit_for_bit(build, n, target_chart):
    """cauchy_kernel_G of the embedded differences equals the blades that
    _kernel_pairs fills, bit for bit: both sum the squares in the same order,
    for same-chart and cross-chart targets (neck and body)."""
    m, rng = build(n, 2.0), np.random.default_rng(n)
    x = ManifoldPoint(1, rng.uniform(0.6, 4.0, (400, 1)) * _unit_rows(rng, 400, n))
    y = ManifoldPoint(target_chart, rng.uniform(0.6, 4.0, (1, 300, 1)) * _unit_rows(rng, 300, n))
    blades = _kernel_pairs(m, ManifoldPoint(1, x.coord[:, None]), y)
    y_in_1 = y.coord if target_chart == 1 else apply_transition(m, y.coord)
    want = cauchy_kernel_G(embed(m, ManifoldPoint(1, x.coord[:, None])) - embed(m, ManifoldPoint(1, y_in_1)), n, n + 1)
    assert blades.shape == (n + 1, 400, 300)
    assert np.array_equal(vectors(np.moveaxis(blades, 0, -1), n + 1), want)


@pytest.mark.parametrize("n", [2, 3])
def test_cross_chart_fill_classifies_each_point_array_once(monkeypatch, n):
    """A cross-chart fill over (40, 1) sources and (1, 30) targets classifies
    the source array and the target array once each, and returns the one
    blade-major array (n+1, 40, 30), with no case labels."""
    m, rng, seen = two_spheres(n, 2.0), np.random.default_rng(n), []
    classify = kernel.classify
    monkeypatch.setattr(kernel, "classify", lambda m, p: seen.append(p) or classify(m, p))
    x = ManifoldPoint(1, rng.uniform(0.6, 4.0, (40, 1, 1)) * _unit_rows(rng, 40, n)[:, None])
    y = ManifoldPoint(2, rng.uniform(0.6, 4.0, (1, 30, 1)) * _unit_rows(rng, 30, n))
    blades = _kernel_pairs(m, x, y)
    assert len(seen) == 2 and seen[0] is x and seen[1] is y
    assert isinstance(blades, np.ndarray) and blades.shape == (n + 1, 40, 30)


def _unit_rows(rng, count, n):
    v = rng.normal(size=(count, n))
    return v / np.sqrt((v * v).sum(-1, keepdims=True))


def test_batch_raises_for_any_diagonal_pair(m2):
    xs = ManifoldPoint(1, np.array([[3.0, 0.5], [1.5, 0.0]]))
    with pytest.raises(DiagonalError):
        kernel_CM(m2, xs, pt(2, 2.0 / 3.0, 0.0))


def test_case_tag_is_str_for_one_target_and_an_array_over_targets(m2):
    """For one target the case tag is a str in each of the three cases, also
    over a source array; for a cross-chart target array it is an array over
    the targets' shape."""
    xs = (pt(1, 3.0, 0.5), ManifoldPoint(1, np.array([[3.0, 0.5], [2.5, -1.0]])))
    targets = {SAME_CHART: pt(1, 1.2, 0.4), OVERLAP_REP: pt(2, 1.0, 0.5), CROSS_GLUE: pt(2, 2.5, 1.0)}
    for x in xs:
        for case, y in targets.items():
            tag = kernel_CM(m2, x, y).case_tag
            assert type(tag) is str and tag == case
    ys = ManifoldPoint(2, np.array([[[1.0, 0.5], [2.5, 1.0]], [[0.9, -0.6], [3.0, 0.0]]]))
    tags = kernel_CM(m2, xs[0], ys).case_tag
    assert isinstance(tags, np.ndarray) and tags.shape == (2, 2)
    assert tags.tolist() == [[OVERLAP_REP, CROSS_GLUE], [OVERLAP_REP, CROSS_GLUE]]


def test_diagonal_raises(m2):
    with pytest.raises(DiagonalError):
        kernel_CM(m2, pt(1, 3.0, 0.0), pt(1, 3.0, 0.0))
    # two neck representatives of one point are the diagonal too
    with pytest.raises(DiagonalError):
        kernel_CM(m2, pt(1, 1.0, 0.0), pt(2, 1.0, 0.0))


def test_neck_representatives_are_the_diagonal(m2):
    """A neck point and its other-chart representative are one point of M, in
    either argument order."""
    for p, q in ((pt(1, 1.0, 0.0), pt(2, 1.0, 0.0)), (pt(1, 1.5, 0.0), pt(2, 2.0 / 3.0, 0.0))):
        for x, y in ((p, q), (q, p)):
            with pytest.raises(DiagonalError):
                kernel_CM(m2, x, y)


def test_inadmissible_raises(m2):
    with pytest.raises(ManifoldError):
        kernel_CM(m2, pt(1, 0.1, 0.0), pt(1, 3.0, 0.0))


def test_inadmissible_error_names_the_first_inadmissible_point(m2):
    with pytest.raises(ManifoldError, match=r"inadmissible point in chart 2 at \[0\.1, 0\.2\]"):
        kernel_CM(m2, pt(1, 3.0, 0.0), pt(2, 0.1, 0.2))
    pts = ManifoldPoint(1, np.array([[3.0, 0.0], [0.25, -0.125], [0.0, 0.1]]))
    with pytest.raises(ManifoldError, match=r"inadmissible point in chart 1 at \[0\.25, -0\.125\]"):
        kernel_CM(m2, pts, pt(1, 3.0, 1.0))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("build", [two_spheres, plane_sphere])
@pytest.mark.parametrize("y_chart", [2, 1])
def test_diagonal_tolerance_is_relative_to_the_embedding(build, n, scale, y_chart):
    """A pair is on the diagonal when its embedded distance is at most 1e-10
    of the larger embedded norm, whatever the chart scale: at a relative
    distance of 1e-11 the kernel raises and names both points, at 1e-9 it is
    finite. x is a chart-2 neck point; y is read in chart 2 or, through the
    transition, in chart 1."""
    m = build(n, 2.0, (scale, scale)) if build is two_spheres else build(n, 2.0, scale)
    x = np.array([1.5, 0.2, -0.1][:n])
    u = np.array([0.6, -0.8, 0.0][:n])

    def embedded_ratio(y2):
        ex, ey = embed(m, ManifoldPoint(2, x)), embed(m, ManifoldPoint(2, y2))
        return np.linalg.norm(ex - ey) / max(np.linalg.norm(ex), np.linalg.norm(ey))

    per_step = embedded_ratio(x + 1e-6 * u) / 1e-6
    for rel in (1e-11, 1e-9):
        y2 = x + (rel / per_step) * u
        assert abs(embedded_ratio(y2) / rel - 1.0) <= 1e-3
        y = ManifoldPoint(y_chart, y2 if y_chart == 2 else apply_transition(m, y2))
        if rel < 1e-10:
            names = f"x = {x.tolist()} in chart 2, y = {y.coord.tolist()} in chart {y_chart}"
            with pytest.raises(DiagonalError, match=re.escape(names)):
                kernel_CM(m, ManifoldPoint(2, x), y)
        else:
            assert np.isfinite(kernel_CM(m, ManifoldPoint(2, x), y).coeffs).all()


@pytest.mark.parametrize("other_chart", [1, 2])
def test_kernel_pairs_pair_array_memory(m2, other_chart):
    """Over (N, N) neck pairs at N = 1024 the diagonal is tested on the norm
    buffer G divides by, with boolean masks only: the traced peak stays below
    the returned (3, N, N) blades plus two (N, N) float arrays. Left in, the
    pairs of one point are the first diagonal pair; masked out, no other
    pair is diagonal."""
    nn = 1024
    t = 2.0 * np.pi * np.arange(nn) / nn
    pts = 1.5 * np.stack((np.cos(t), np.sin(t)), axis=-1)  # neck points
    other = pts if other_chart == 1 else pts / (pts * pts).sum(-1, keepdims=True)
    x, y = ManifoldPoint(1, pts[:, None]), ManifoldPoint(other_chart, other[None])
    first = re.escape(f"x = {pts[0].tolist()} in chart 1, y = {other[0].tolist()} in chart {other_chart}")
    with pytest.raises(DiagonalError, match=first):
        _kernel_pairs(m2, x, y)
    off = ~np.eye(nn, dtype=bool)
    tracemalloc.start()
    try:
        blades = _kernel_pairs(m2, x, y, off)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blades.shape == (3, nn, nn)
    assert peak < blades.nbytes + 2 * nn * nn * 8, peak


def test_diagonal_error_names_the_first_diagonal_pair(m2):
    with pytest.raises(DiagonalError, match=r"x = \[3\.0, 0\.5\] in chart 1, y = \[3\.0, 0\.5\] in chart 1"):
        kernel_CM(m2, pt(1, 3.0, 0.5), pt(1, 3.0, 0.5))
    # over point arrays: the first pair on the diagonal, broadcast against one y
    x = ManifoldPoint(1, np.array([[3.0, 1.0], [1.25, 0.0], [3.0, 0.5]]))
    with pytest.raises(DiagonalError, match=r"x = \[1\.25, 0\.0\] in chart 1, y = \[0\.8, 0\.0\] in chart 2"):
        kernel_CM(m2, x, pt(2, 0.8, 0.0))


def test_diagonal_blowup_strength(m2):
    """||C_M|| * ||x_s-y_s||^{n-1} -> 1 approaching the diagonal."""
    x = pt(1, 3.0, 0.0)
    for eps in (1e-2, 1e-3, 1e-4):
        y = pt(1, 3.0 + eps, 0.0)
        d = np.linalg.norm(embed(m2, x) - embed(m2, y))
        val = np.linalg.norm(kernel_CM(m2, x, y).coeffs)
        assert abs(val * d ** (m2.n - 1) - 1.0) <= 1e-6


# -- overlap consistency -----------------------------------------------------


OVERLAP_MANIFOLDS = {
    "two_spheres": lambda: two_spheres(2, 2.0),
    "scale1=1.5": lambda: two_spheres(2, 2.0, (1.5, 1.0)),
    "plane_sphere": lambda: plane_sphere(2, 2.0),
}


@pytest.mark.parametrize("kind", OVERLAP_MANIFOLDS)
def test_overlap_consistency_random_pairs(kind):
    m = OVERLAP_MANIFOLDS[kind]()
    rng = np.random.default_rng(0)
    count = 0
    while count < 100:
        x2 = rng.uniform(0.55, 1.9) * _unit(rng)
        y2 = rng.uniform(0.55, 1.9) * _unit(rng)
        if np.linalg.norm(x2 - y2) < 0.05:
            continue
        res = overlap_consistency_residual(
            m, ManifoldPoint(2, x2), ManifoldPoint(2, y2)
        )
        assert res <= 1e-9
        count += 1


def test_overlap_consistency_near_unit_circle(m2):
    x = pt(2, 1.01, 0.0)
    y = pt(2, 0.99, 0.1)
    assert overlap_consistency_residual(m2, x, y) <= 1e-9


def test_overlap_consistency_rejects_body(m2):
    with pytest.raises(ManifoldError):
        overlap_consistency_residual(m2, pt(1, 3.0, 0.0), pt(1, 1.0, 0.2))


def _unit(rng):
    v = rng.normal(size=2)
    return v / np.linalg.norm(v)


# -- monogenicity of the chart representatives -------------------------------


def test_kernel_left_monogenic_in_y(m2):
    """The Cayley-weighted chart representative in y is flat left monogenic."""
    cay = cayley(2)
    x0 = pt(1, 3.0, 0.5)

    f = CliffordField(
        2,
        3,
        lambda yc: gp_batch(3, weight_J(cay, yc), kernel_CM(m2, x0, ManifoldPoint(1, yc)).coeffs),
    )
    rng = np.random.default_rng(1)
    for _ in range(5):
        y = rng.uniform(0.7, 1.6, 2)
        assert np.linalg.norm(dirac_left_fd(f, y, 1e-4)) <= 1e-5


def test_kernel_right_monogenic_in_x(m2):
    """In x the representative is right monogenic (weight on the right):
    sum_j (d f / dx_j) e_j = rev(D_l(rev o f)), as every e_j is its own
    reversion, and reversion keeps the norm."""
    cay = cayley(2)
    y0 = pt(1, 1.1, -0.4)

    rev_f = CliffordField(
        2,
        3,
        lambda xc: reversion(3, gp_batch(3, kernel_CM(m2, ManifoldPoint(1, xc), y0).coeffs, weight_J(cay, xc))),
    )
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(2.3, 3.4, 2)
        assert np.linalg.norm(dirac_left_fd(rev_f, x, 1e-4)) <= 1e-5


def test_cross_glue_left_monogenic_in_y(m2):
    """The chart-2 representative in y stays monogenic across the glue."""
    cay = cayley(2)
    x0 = pt(1, 3.0, 0.5)

    f = CliffordField(
        2,
        3,
        lambda yc: gp_batch(3, weight_J(cay, yc), kernel_CM(m2, x0, ManifoldPoint(2, yc)).coeffs),
    )
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.uniform(2.2, 3.0, 2)
        assert np.linalg.norm(dirac_left_fd(f, y, 1e-4)) <= 1e-5
