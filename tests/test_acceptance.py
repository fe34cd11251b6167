"""Acceptance suite: the nine headline verification criteria, each printing
one pass/fail line with its measured residual, stated tolerance, and runtime.

Run with `pytest -v` (capture is disabled project-wide so the lines appear
inline); every criterion is independent and seeded.
"""
import dataclasses
import itertools
import time

import numpy as np

from sphereglue import cli
from sphereglue.algebra import Multivector, gp_batch, reversion, vectors
from sphereglue.fields import dirac_left_fd, g_translate, moebius_pullback
from sphereglue.integration import (
    cauchy_integral,
    chart_circle,
    plemelj_projections,
    section_from_germ,
)
from sphereglue.kernel import overlap_consistency_residual
from sphereglue.manifold import ManifoldPoint, two_spheres
from sphereglue.moebius import (
    cayley,
    compose,
    covariance_residual,
    neck_inversion,
    translation_map,
)

SEED = 0


def report(num, name, residual, threshold, t0, extra=""):
    verdict = "PASS" if residual <= threshold else "FAIL"
    line = (
        f"ACCEPTANCE {num} {name}: residual={residual:.3e} "
        f"threshold={threshold:.1e} time={time.time() - t0:.2f}s"
    )
    if extra:
        line += f" {extra}"
    print(f"\n{line} {verdict}")
    assert residual <= threshold, line


# -- 1: algebra laws ---------------------------------------------------------


def test_criterion_1_algebra_laws():
    """10^4 randomized law checks in Cl_2..Cl_4 plus the rewrite-table
    oracle for Cl_2 and Cl_3; under 5 seconds."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checks = 0
    while checks < 10_000:
        dim = int(rng.integers(2, 5))
        a, b, c = (Multivector(dim, rng.uniform(-1, 1, 2**dim)) for _ in range(3))
        scale = max(a.norm() * b.norm() * c.norm(), 1e-30)
        worst = max(worst, ((a * b) * c - a * (b * c)).norm() / scale)
        ra, rb, rab = (Multivector(dim, reversion(dim, t.coeffs)) for t in (a, b, a * b))
        worst = max(
            worst,
            (rab - rb * ra).norm()
            / max(a.norm() * b.norm(), 1e-30),
        )
        v = Multivector(dim, vectors(rng.uniform(-2, 2, dim), dim))
        worst = max(
            worst,
            (v * v + Multivector(dim, np.eye(2**dim)[0] * v.norm() ** 2)).norm()
            / max(v.norm() ** 2, 1e-30),
        )
        checks += 3

    # independent rewrite-table oracle (exact)
    from test_algebra import _oracle_blade_product

    for dim in (2, 3):
        for i, j in itertools.product(range(2**dim), repeat=2):
            ca = np.zeros(2**dim)
            ca[i] = 1.0
            cb = np.zeros(2**dim)
            cb[j] = 1.0
            got = Multivector(dim, ca) * Multivector(dim, cb)
            idx, sign = _oracle_blade_product(i, j, dim)
            want = np.zeros(2**dim)
            want[idx] = sign
            assert np.array_equal(got.coeffs, want)

    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(1, "algebra-laws", worst, 1e-10, t0, extra=f"checks={checks}")


# -- 2: covariance identity --------------------------------------------------


def _map_pool(rng, n, count):
    pool = []
    while len(pool) < count:
        kind = rng.integers(0, 4)
        if kind == 0:
            pool.append(translation_map(rng.uniform(-2, 2, n), n, n))
        elif kind == 1:
            pool.append(neck_inversion(n))
        elif kind == 2:
            pool.append(cayley(n))
        else:
            pool.append(
                compose(
                    translation_map(rng.uniform(-2, 2, n), n, n),
                    compose(neck_inversion(n), translation_map(rng.uniform(-2, 2, n), n, n)),
                )
            )
    return pool


def _covariance_worst(rng, n, triples):
    from sphereglue.moebius import apply, cauchy_kernel_G

    worst = 0.0
    done = 0
    pool = _map_pool(rng, n, 40)
    while done < triples:
        psi = pool[done % len(pool)]
        x = rng.uniform(-2, 2, n)
        y = rng.uniform(-2, 2, n)
        if np.linalg.norm(x - y) < 0.2:
            continue
        img = apply(psi, np.stack((x, y)))
        px, py = img.points
        if not img.finite.all() or np.linalg.norm(px - py) < 1e-3:
            continue
        k = psi.ambient_dim
        gx = np.zeros(k)
        gx[:n] = x - y
        base = np.linalg.norm(cauchy_kernel_G(gx, psi.kernel_exponent, k))
        res = covariance_residual(psi, x, y, px, py)
        worst = max(worst, res / max(base, 1e-30))
        done += 1
    return worst


def test_criterion_2_covariance():
    """Residual <= 1e-9 relative over 10^3 random (psi, x, y); under 5 s."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = _covariance_worst(rng, 2, 1000)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(2, "covariance-identity", worst, 1e-9, t0)


# -- 3: monogenicity preservation --------------------------------------------


def test_criterion_3_monogenicity_preservation():
    """FD left-Dirac residual of pullbacks of G-translates <= 1e-5 at
    h = 1e-4, n = 2 and 3. The convergence order under halving is >= 3.9;
    it is measured from h = 2e-2, where the O(h^4) truncation error still
    dominates rounding."""
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_order = np.inf
    for n in (2, 3):
        maps = [
            neck_inversion(n),
            translation_map(rng.uniform(-1, 1, n), n, n),
            compose(
                translation_map(rng.uniform(-1, 1, n), n, n),
                compose(neck_inversion(n), translation_map(rng.uniform(-1, 1, n), n, n)),
            ),
            dataclasses.replace(cayley(n), kernel_exponent=n + 1),
        ]
        for psi in maps:
            k = psi.ambient_dim
            pole = rng.uniform(2.5, 4.0, k) * rng.choice([-1.0, 1.0], k)
            pb = moebius_pullback(psi, g_translate(pole, n=psi.kernel_exponent, dim_alg=k))
            checked = 0
            while checked < 8:
                x = rng.uniform(-1.8, 1.8, k)
                if not np.all(pb.domain(x)):
                    continue
                try:
                    r_h = np.linalg.norm(dirac_left_fd(pb, x, 1e-4))
                    r_2s, r_s = (np.linalg.norm(dirac_left_fd(pb, x, s)) for s in (2e-2, 1e-2))
                except Exception:
                    continue
                worst = max(worst, r_h)
                if r_s > 1e-12:
                    worst_order = min(worst_order, np.log2(r_2s / r_s))
                checked += 1
    assert worst_order >= 3.9, f"observed FD order {worst_order:.2f} < 3.9"
    report(3, "monogenicity-preservation", worst, 1e-5, t0, extra=f"order={worst_order:.2f}")


# -- 4: overlap consistency --------------------------------------------------


def test_criterion_4_overlap_consistency():
    """Max residual <= 1e-9 over 10^3 random neck pairs, S1^S2(2), n=2."""
    t0 = time.time()
    m = two_spheres(2, 2.0)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    done = 0
    while done < 1000:
        v = rng.normal(size=(2, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        x2, y2 = rng.uniform(0.52, 1.95, 2)[:, None] * v
        if np.linalg.norm(x2 - y2) < 0.02:
            continue
        worst = max(
            worst,
            overlap_consistency_residual(m, ManifoldPoint(2, x2), ManifoldPoint(2, y2)),
        )
        done += 1
    report(4, "overlap-consistency", worst, 1e-9, t0)


# -- 5, 6, 7: Cauchy integral formula ----------------------------------------


def _setup_cauchy(m):
    pole = np.array([4.0, 0.0])
    sec = section_from_germ(m, g_translate(pole, n=2, dim_alg=3))
    interior = ManifoldPoint(1, np.array([0.6, 0.0]))
    return sec, interior


def test_criterion_5_theorem1_same_chart():
    """Same-chart reproduction error <= 1e-6 at quad_order 512, matching the
    flat chart-plane oracle; under 30 s."""
    t0 = time.time()
    m = two_spheres(2, 2.0)
    sec, interior = _setup_cauchy(m)
    surf = chart_circle(m, 1, np.zeros(2), 3.0, 512, interior=interior)
    y = ManifoldPoint(1, np.array([1.2, 0.4]))
    rep = cauchy_integral(m, surf, sec, y)
    err = (rep.value - sec.value_at(y)).norm()

    # flat chart-plane oracle
    from sphereglue.moebius import cauchy_kernel_G, weight_J

    germ = g_translate(np.array([4.0, 0.0]), n=2, dim_alg=3)
    yc = np.array([1.2, 0.4])
    nn = 600
    ts = 2 * np.pi * (np.arange(nn) + 0.5) / nn
    acc = np.zeros(8)
    for t in ts:
        x = 3.0 * np.array([np.cos(t), np.sin(t)])
        n_out = np.array([np.cos(t), np.sin(t), 0.0])
        kn = gp_batch(3, cauchy_kernel_G(np.append(x - yc, 0.0), 2, 3), vectors(-n_out, 3))
        acc = acc + gp_batch(3, kn, germ.values(x)) * (3.0 * 2 * np.pi / nn)
    flat = Multivector(3, acc / (2 * np.pi))
    oracle_err = (Multivector(3, weight_J(cayley(2), yc)) * rep.value - flat).norm()
    combined = max(rep.estimated_error, 1e-9)
    assert oracle_err <= 10 * combined, f"oracle mismatch {oracle_err:.3e}"

    elapsed = time.time() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(5, "theorem1-same-chart", err, 1e-6, t0, extra=f"oracle={oracle_err:.1e}")


def test_criterion_6_theorem1_cross_glue():
    """Cross-glue reproduction <= 1e-4 at order 256, decaying monotonically
    with order until the rounding plateau; under 60 s."""
    t0 = time.time()
    m = two_spheres(2, 2.0)
    sec, interior = _setup_cauchy(m)
    y = ManifoldPoint(2, np.array([2.5, 1.0]))
    exact = sec.value_at(y)
    errs = []
    for order in (32, 64, 128, 256):
        surf = chart_circle(m, 1, np.zeros(2), 3.0, order, interior=interior)
        errs.append((cauchy_integral(m, surf, sec, y).value - exact).norm())
    for i in range(len(errs) - 1):
        if errs[i] > 1e-12:
            assert errs[i + 1] < errs[i], f"no decay at step {i}: {errs}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    report(
        6,
        "theorem1-cross-glue",
        errs[-1],
        1e-4,
        t0,
        extra="errors=" + ",".join(f"{e:.1e}" for e in errs),
    )


def test_criterion_7_contour_independence():
    """A body contour and a neck-crossing contour agree to 2x the combined
    estimated quadrature error."""
    t0 = time.time()
    m = two_spheres(2, 2.0)
    sec, interior = _setup_cauchy(m)
    y = ManifoldPoint(1, np.array([1.2, 0.4]))
    r_a = cauchy_integral(m, chart_circle(m, 1, np.zeros(2), 3.0, 128, interior=interior), sec, y)
    r_b = cauchy_integral(m, chart_circle(m, 1, np.zeros(2), 1.5, 128, interior=interior), sec, y)
    combined = 2.0 * (r_a.estimated_error + r_b.estimated_error) + 1e-14
    diff = (r_a.value - r_b.value).norm()
    report(7, "contour-independence", diff, combined, t0)


# -- 8: Plemelj projections --------------------------------------------------


def test_criterion_8_plemelj():
    """At 512 nodes monogenic traces give ||P-g||_inf <= 1e-3, the split is
    exact, and the defect at least halves when nodes double (measured on the
    pre-plateau refinements; 512 nodes already sit at rounding level)."""
    t0 = time.time()
    m = two_spheres(2, 2.0)
    sec, interior = _setup_cauchy(m)
    surf = chart_circle(m, 1, np.zeros(2), 3.0, 64, interior=interior)

    defects = {}
    part = 0.0
    for nn in (64, 128, 512):
        res = plemelj_projections(m, surf, lambda p: sec.value_at(p), n_nodes=nn)
        defects[nn] = max(v.norm() for v in res.g_minus)
        part = max(
            part,
            max((res.g_plus[i] + res.g_minus[i] - res.g[i]).norm() for i in range(nn)),
        )
    assert part <= 1e-14, f"partition defect {part:.2e}"
    assert (
        defects[128] <= 0.5 * defects[64] or defects[128] <= 1e-12
    ), f"defect did not halve: {defects}"
    report(
        8,
        "plemelj-hardy-split",
        defects[512],
        1e-3,
        t0,
        extra=f"halving={defects[128] / defects[64]:.1e} partition={part:.1e}",
    )


# -- 9: negative controls ----------------------------------------------------


def _shifted_covariance_worst(shift):
    """_covariance_worst under the break_weight control: the exponent of the
    J factors shifted by shift, the kernel exponent left alone."""
    with cli.patched([(*cli.CONTROLS["break_weight"], shift)]):
        return _covariance_worst(np.random.default_rng(SEED), 2, 100)


def test_criterion_9_negative_controls():
    """Wrong weight exponent (by one) or flipped normal sign break the
    covariance and Theorem-1 criteria by at least two orders of magnitude."""
    t0 = time.time()

    # covariance with the J exponent off by one
    bad_cov = min(_shifted_covariance_worst(shift) for shift in (1, -1))
    assert bad_cov >= 100 * 1e-9, f"covariance control too weak: {bad_cov:.2e}"

    m = two_spheres(2, 2.0)
    sec, interior = _setup_cauchy(m)
    surf = chart_circle(m, 1, np.zeros(2), 3.0, 64, interior=interior)
    y5 = ManifoldPoint(1, np.array([1.2, 0.4]))
    y6 = ManifoldPoint(2, np.array([2.5, 1.0]))

    for y, tol, label in ((y5, 1e-6, "same-chart"), (y6, 1e-4, "cross-glue")):
        for key in ("break_weight", "break_normal"):
            with cli.patched([(*cli.CONTROLS[key], 1)]):
                err = (cauchy_integral(m, surf, sec, y).value - sec.value_at(y)).norm()
            assert err >= 100 * tol, f"{label} {key} control too weak: {err:.2e}"

    report(
        9,
        "negative-controls",
        0.0,
        1.0,
        t0,
        extra=f"cov-broken={bad_cov:.1e} (controls inverted: large is good)",
    )
