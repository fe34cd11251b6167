"""Layer microbenchmarks, one per entry of the ROADMAP's layer list.

Each timing is taken next to the residual it reached: the Cauchy integral's
error against the exact section value, and max ||g_minus|| for Plemelj. The
other layers are checked against a reference instead, and a mismatch is a
correctness failure of the benchmark run.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from sphereglue.algebra import Multivector, gp_batch
from sphereglue.fields import g_translate
from sphereglue.integration import (
    cauchy_integral,
    chart_circle,
    chart_sphere,
    plemelj_projections,
    section_from_germ,
)
from sphereglue.kernel import kernel_CM
from sphereglue.manifold import ManifoldPoint, chart_transfer, embed, two_spheres
from sphereglue.moebius import apply, weight_J

BATCH_ROWS = 4096
CAUCHY_ORDER = 256
# The 2-D product rule at n = 3: the smallest order of verify-cauchy's
# cross-glue convergence table, whose error there is about 1.3e-4.
CAUCHY_N3_ORDER = 16
PLEMELJ_NODES = (64, 128, 256)

# Thresholds the CLI suites apply to the same quantities.
CAUCHY_TOL = {"same-chart": 1e-6, "cross-glue": 1e-4}
CAUCHY_N3_TOL = 1e-3
PLEMELJ_TOL = 1e-3


def _per_call(fn, number: int, repeats: int = 5) -> float:
    """Median seconds per call over `repeats` batches of `number` calls."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - start) / number)
    return statistics.median(times)


def run(seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Metrics as name -> (value, unit), and the checks that failed."""
    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}
    problems: list[str] = []

    # algebra: single products and the batched core
    for k in (3, 4):
        a, b = (Multivector(k, rng.uniform(-1, 1, 2**k)) for _ in range(2))
        out[f"algebra.product_k{k}.us"] = (1e6 * _per_call(lambda: a * b, 400), "us")
        rows_a = rng.uniform(-1, 1, (BATCH_ROWS, 2**k))
        rows_b = rng.uniform(-1, 1, (BATCH_ROWS, 2**k))
        per_row = _per_call(lambda: gp_batch(k, rows_a, rows_b), 1) / BATCH_ROWS
        out[f"algebra.gp_batch_k{k}.us_per_row"] = (1e6 * per_row, "us/row")
        batch = gp_batch(k, rows_a[:32], rows_b[:32])
        for i in range(32):
            ref = (Multivector(k, rows_a[i]) * Multivector(k, rows_b[i])).coeffs
            if np.max(np.abs(batch[i] - ref)) > 1e-12:
                problems.append(f"gp_batch k={k} row {i} disagrees with the product")
                break

    # moebius and manifold: the cross-chart transfer of the default manifold
    m = two_spheres(2, 2.0)
    trans = chart_transfer(m, 1, 2)
    u = embed(m, ManifoldPoint(2, np.array([2.5, 1.0])))
    out["moebius.apply.us"] = (1e6 * _per_call(lambda: apply(trans, u), 200), "us")
    out["moebius.weight_J.us"] = (1e6 * _per_call(lambda: weight_J(trans, u), 200), "us")
    out["manifold.chart_transfer.us"] = (1e6 * _per_call(lambda: chart_transfer(m, 1, 2), 20), "us")

    # kernel: one target per case branch, source on the Cauchy contour
    x = ManifoldPoint(1, np.array([3.0, 0.0]))
    targets = {
        "same-chart": (ManifoldPoint(1, np.array([1.2, 0.4])), 400),
        "overlap-rep": (ManifoldPoint(2, np.array([1.0, 0.5])), 40),
        "cross-glue": (ManifoldPoint(2, np.array([2.5, 1.0])), 40),
    }
    for case, (y, number) in targets.items():
        tag = kernel_CM(m, x, y).case_tag
        if tag != case:
            problems.append(f"kernel_CM returned case {tag} for the {case} target")
        out[f"kernel.kernel_CM.{case}.us"] = (1e6 * _per_call(lambda: kernel_CM(m, x, y), number), "us")

    # integration: the verify-cauchy section and contour at n = 2
    sec = section_from_germ(m, g_translate(np.array([4.0, 0.0]), n=2, dim_alg=3))
    interior = ManifoldPoint(1, np.array([0.6, 0.0]))
    surf = chart_circle(m, 1, np.zeros(2), 3.0, CAUCHY_ORDER, interior=interior)
    for case in ("same-chart", "cross-glue"):
        y = targets[case][0]
        times = []
        for _ in range(3):
            start = perf_counter()
            rep = cauchy_integral(m, surf, sec, y, order=CAUCHY_ORDER)
            times.append(perf_counter() - start)
        err = (rep.value - sec.value_at(y)).norm()
        if not err <= CAUCHY_TOL[case]:
            problems.append(f"cauchy_integral {case} error {err:.3e}")
        out[f"integration.cauchy_integral.{case}.us_per_node"] = (
            1e6 * statistics.median(times) / rep.nodes_used, "us/node")
        out[f"integration.cauchy_integral.{case}.error"] = (err, "1")

    # integration: the 2-D product rule of verify-cauchy at n = 3, cross-glue
    m3 = two_spheres(3, 2.0)
    sec3 = section_from_germ(m3, g_translate(np.array([4.0, 0.0, 0.0]), n=3, dim_alg=4))
    sphere = chart_sphere(m3, 1, np.zeros(3), 3.0, CAUCHY_N3_ORDER,
                          interior=ManifoldPoint(1, np.array([0.6, 0.0, 0.0])))
    y3 = ManifoldPoint(2, np.array([2.5, 1.0, 0.0]))
    start = perf_counter()
    rep = cauchy_integral(m3, sphere, sec3, y3, order=CAUCHY_N3_ORDER)
    took = perf_counter() - start
    err = (rep.value - sec3.value_at(y3)).norm()
    if not err <= CAUCHY_N3_TOL:
        problems.append(f"cauchy_integral n=3 cross-glue error {err:.3e}")
    out["integration.cauchy_integral.n3-cross-glue.us_per_node"] = (1e6 * took / rep.nodes_used, "us/node")
    out["integration.cauchy_integral.n3-cross-glue.error"] = (err, "1")

    # integration: Plemelj projections on the hardy contour
    seconds = []
    for nodes in PLEMELJ_NODES:
        curve = chart_circle(m, 1, np.zeros(2), 3.0, nodes, interior=interior)
        start = perf_counter()
        res = plemelj_projections(m, curve, sec.value_at, n_nodes=nodes)
        seconds.append(perf_counter() - start)
        defect = max(v.norm() for v in res.g_minus)
        if not defect <= PLEMELJ_TOL:
            problems.append(f"plemelj N={nodes} defect {defect:.3e}")
        out[f"integration.plemelj.N{nodes}_s"] = (seconds[-1], "s")
        out[f"integration.plemelj.N{nodes}_g_minus"] = (defect, "1")
    slope = np.polyfit(np.log(PLEMELJ_NODES), np.log(seconds), 1)[0]
    out["integration.plemelj.scaling_exponent"] = (float(slope), "1")
    return out, problems
