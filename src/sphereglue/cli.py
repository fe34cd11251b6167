"""Verification command line: runs the algebra, kernel, Cauchy-formula and
Hardy-projection suites against a configured manifold and writes diffable
structured-text reports.

Subcommands: verify-algebra, verify-kernel, verify-cauchy, hardy.
Config files are flat key=value text; command-line flags override them.
Exit status is 0 exactly when every property passes, 2 for a bad config,
and 1, with one stderr line naming the suite, the config line and the
exception, when a suite raises.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
import typing

import numpy as np

from . import integration, moebius
from .algebra import gp_batch, reversion, row_norms, vectors
from .fields import DEFAULT_FD_STEP, constant_field, dirac_from_stencil, fd_stencil, g_translate
from .integration import cauchy_integrals, chart_circle, chart_sphere, plemelj_projections, section_from_germ
from .kernel import DiagonalError, kernel_CM, overlap_consistency_residual
from .manifold import ManifoldPoint, embed, plane_sphere, two_spheres
from .moebius import (
    VahlenError,
    VahlenMap,
    apply,
    cauchy_kernel_G,
    cayley,
    compose,
    covariance_residual,
    neck_inversion,
    translation_map,
    weight_J_rows,
)


@dataclasses.dataclass
class RunConfig:
    """The run's settings; the fields, in order, are the config schema: the
    keys a config file may set, their types, and the report's config line."""

    kind: str = "two_spheres"
    n: int = 2
    r: float = 2.0
    scale1: float = 1.0
    scale2: float = 1.0
    seed: int = 0
    order: int = 256
    out: str | None = None
    # falsification controls, each a row of CONTROLS that run_suite applies
    break_weight: int = 0
    break_normal: int = 0
    corrupt_vahlen: int = 0


_FIELDS = typing.get_type_hints(RunConfig)
_KINDS = ("two_spheres", "plane_sphere")


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, val in parse_config_file(args.config).items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            if _FIELDS[key] in (int, float):
                try:
                    val = _FIELDS[key](val)
                except ValueError:
                    what = "an integer" if _FIELDS[key] is int else "a number"
                    raise ValueError(f"{key} must be {what}, got {val!r}") from None
            setattr(cfg, key, val)
    for key in ("seed", "order", "out"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if cfg.kind not in _KINDS:
        raise ValueError(f"kind must be one of {', '.join(_KINDS)}, got {cfg.kind!r}")
    if cfg.n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if not cfg.r > 1.0:
        raise ValueError("r must exceed 1")
    # a scale of about 1e-14 or 1e14 leaves a chart's or the neck's Vahlen map unbuildable
    for key in ("scale1", "scale2"):
        if not 1e-12 <= getattr(cfg, key) <= 1e12:
            raise ValueError(f"{key} must be within [1e-12, 1e12]")
    # the neck transfer's pseudo-determinant is scale1/scale2; from 1e-14 down it has no inverse
    if cfg.kind == "two_spheres" and cfg.scale1 / cfg.scale2 < 1e-13:
        raise ValueError(f"scale1/scale2 must be at least 1e-13, got {cfg.scale1 / cfg.scale2:g}")
    # from about 1e77 on, the neck's Vahlen maps overflow in verify-kernel at n = 3; this also rejects inf
    if cfg.r > 1e50:
        raise ValueError("r must be at most 1e50")
    if cfg.out and (os.path.isdir(cfg.out) or not os.access(os.path.dirname(cfg.out) or ".", os.W_OK)):
        raise ValueError(f"cannot write {cfg.out!r}: a directory, or its directory is missing or read-only")
    if cfg.seed < 0:
        raise ValueError("seed must be >= 0")
    # leggauss is cubic in the order and hardy's operator quadratic: at 2048
    # both order-driven suites still run in about a second
    if not 4 <= cfg.order <= 2048:
        raise ValueError("order must be within [4, 2048]")
    for key in ("break_weight", "break_normal", "corrupt_vahlen"):
        if getattr(cfg, key) not in (0, 1):
            raise ValueError(f"{key} must be 0 or 1, got {getattr(cfg, key)}")
    # the set-up of a run may build a config without naming a command
    if getattr(args, "command", None) == "hardy" and cfg.n != 2:
        raise ValueError(f"n must be 2 for hardy, got {cfg.n}")
    # the offset rule's half on every other node needs an even count of its own
    if getattr(args, "command", None) == "hardy" and cfg.order % 4:
        raise ValueError(f"order must be a multiple of 4 for hardy, got {cfg.order}")
    return cfg


def make_manifold(cfg: RunConfig):
    """The configured manifold; no control reaches it (see CONTROLS)."""
    if cfg.kind == "two_spheres":
        return two_spheres(cfg.n, cfg.r, (cfg.scale1, cfg.scale2))
    return plane_sphere(cfg.n, cfg.r, cfg.scale2)


def config_line(cfg: RunConfig) -> str:
    """Every RunConfig field but out, in order, floats in %g form."""
    return "config " + " ".join(
        f"{key}={getattr(cfg, key):{'g' if hint is float else ''}}" for key, hint in _FIELDS.items() if key != "out"
    )


class Report:
    """A suite's report: its title and config lines, then one line per property."""

    def __init__(self, title: str, cfg: RunConfig):
        self.lines = [f"# sphereglue {title}", config_line(cfg)]
        self.passed: list[bool] = []

    def add(self, name: str, residual: float, threshold: float):
        """The property's line; it passes when residual <= threshold (NaN fails)."""
        self.passed.append(bool(residual <= threshold))
        verdict = "pass" if self.passed[-1] else "fail"
        self.lines.append(f"property={name} residual={residual:.6e} threshold={threshold:.6e} verdict={verdict}")

    def add_csv(self, title: str, header: str, rows: list[str]):
        self.lines += [f"csv {title}", header, *rows]

    def finish(self) -> tuple[str, int]:
        ok = all(self.passed)
        self.lines.append(f"summary properties={len(self.passed)} result={'pass' if ok else 'fail'}")
        return "\n".join(self.lines) + "\n", 0 if ok else 1


def _random_maps(rng, n: int, count: int) -> dict:
    """Sample from translations T_t, the neck inversion N, Cayley, and
    compositions T_s N T_t; the kinds and the offsets (t, s) are drawn in one
    block each. The pool as stacks, per (ambient_dim, kernel_exponent) in
    order of first appearance: the pool indices of its maps and their stack
    (maps, 2, 2, 2^k). Every T_t and T_s is built by one translation_map
    call, and the compositions by two stacked compose calls."""
    kinds = rng.integers(0, 4, count)
    offsets = rng.uniform(-2.0, 2.0, (count, 2, n))
    shifts = translation_map(np.moveaxis(offsets, 1, 0)).coeffs  # T_t and T_s of every draw
    t_maps, s_maps = (VahlenMap(c[kinds == 3], n) for c in shifts)
    flat = shifts[0].copy()  # every map of Cl_n, over T_t's rows
    flat[kinds == 1] = neck_inversion(n).coeffs
    flat[kinds == 3] = compose(s_maps, compose(neck_inversion(n), t_maps)).coeffs
    cayleys = np.broadcast_to(cayley(n).coeffs, (count, 2, 2, 2 << n))
    stacks = {(n, n): flat[kinds != 2], (n + 1, n): cayleys[kinds == 2]}
    members = {(n, n): (kinds != 2).nonzero()[0], (n + 1, n): (kinds == 2).nonzero()[0]}
    keys = sorted((key for key in stacks if members[key].size), key=lambda key: members[key][0])
    return {key: (members[key], VahlenMap(stacks[key], key[1])) for key in keys}


def _corrupted(random_maps, _):
    """random_maps with the bivector 0.25 e1e2 added to `a` of the pool's
    first map, which leaves it no valid Vahlen matrix whatever its kind."""

    def corrupted(rng, n: int, count: int) -> dict:
        pool = random_maps(rng, n, count)
        key, (members, psi) = next(iter(pool.items()))
        coeffs = psi.coeffs.copy()
        coeffs[0, 0, 0, 0b11] += 0.25
        pool[key] = (members, VahlenMap(coeffs, psi.kernel_exponent))
        return pool

    return corrupted


# Candidate rows drawn per map in one block; well above the five kept, since
# at most a third of a block was rejected over seeds 0-199
_BLOCK = 12


def _first_accepted(draw, judge, count: int = 5) -> list[np.ndarray]:
    """Each map's first `count` rows, in draw order, that judge accepts,
    (maps, count, w), followed by the judge's payloads picked at the same
    rows, (maps, count, ...). draw() returns a block of candidate rows
    (maps, C, w); judge(rows) returns per row whether it is accepted and
    whether it raises, then any payload arrays (maps, C, ...) it computed.
    While a map has fewer than `count`, another block is drawn and judged for
    every map. Raises VahlenError if a judged row raises."""
    blocks, marks = [], []
    while not marks or (np.concatenate(marks, axis=1).sum(1) < count).any():
        rows = draw()
        accepted, raising, *payloads = judge(rows)
        if raising.any():
            raise VahlenError("invalid Vahlen coefficients: image is not grade-1")
        marks.append(accepted)
        blocks.append((rows, *payloads))
    first = np.argsort(~np.concatenate(marks, axis=1), axis=1, kind="stable")[:, :count]
    return [np.concatenate(parts, axis=1)[np.arange(len(first))[:, None], first] for parts in zip(*blocks)]


def _admissible_pairs(psi, n: int):
    """Judge rows (x, y): apart, with images finite and apart, and the map
    well away from singular at x. The payload is the images (..., 2, k) of
    x and y."""
    k, (_, _, c, d) = psi.ambient_dim, psi.rows

    def judge(rows):
        x, y = rows[..., :n], rows[..., n:]
        apart = row_norms(x - y) >= 0.2
        img = apply(psi, np.stack((x, y)), raise_invalid=False)
        px, py = img.points
        den_x = row_norms(gp_batch(k, c, vectors(x, k)) + d)
        accepted = apart & img.finite.all(0) & (row_norms(px - py) >= 1e-3) & (den_x >= 0.1)
        return accepted, apart & ~img.valid.all(0), np.moveaxis(img.points, 0, -2)

    return judge


def _stencil_samples(psi, f, h: float):
    """Judge finite-difference sample points (..., k) of the pullback of f by
    psi: the pullback must be defined at the point and on its whole stencil,
    where the weight must also be regular. The stencil is every point the
    finite-difference operator evaluates, at both of its steps. A grade-1
    failure at the point raises; one on the stencil only rejects the point.
    The payload is the pullback's values J(psi, x) f(psi(x)) on the stencil
    (..., 2, 2, k, 2^k), NaN where it is not defined. psi and f may be stacks
    that broadcast against the stencils (..., 2, 2, k); f takes points of R^k."""
    k = psi.ambient_dim

    def judge(rows):
        centre = apply(psi, rows[..., None, None, None, :], raise_invalid=False)
        stencil = fd_stencil(rows, h)
        around = apply(psi, stencil, raise_invalid=False)
        weights, regular = weight_J_rows(psi, stencil)
        defined = around.finite & around.valid & regular & f.domain(around.points)
        accepted = centre.finite & f.domain(centre.points) & defined
        values = gp_batch(k, weights, f.func(np.where(defined[..., None], around.points, np.nan)))
        return accepted.all((-3, -2, -1)), ~centre.valid[..., 0, 0, 0], values

    return judge


def _pullback_samples(rng, pool, count: int = 10):
    """The pullback suite's samples over the first `count` maps of a pool of
    _random_maps, each used as a map of its full ambient space (kernel
    exponent k): the poles (maps, K) of the fields G(x - pole), drawn in one
    block, and per k: the pool indices of its maps, their stack
    (maps, 1, 1, 1, 1), which broadcasts against the stencils
    (maps, P, 2, 2, k) of points (maps, P, k), the fields with the maps'
    poles (their first k columns), each map's first five finite-difference
    sample points that _stencil_samples accepts, and the pullback's values
    on their stencils."""
    firsts = {k: (idx[idx < count], psi.coeffs[idx < count]) for (k, _), (idx, psi) in pool.items() if idx[0] < count}
    maps, width = sum(len(idx) for idx, _ in firsts.values()), max(firsts)
    poles = rng.uniform(2.5, 4.0, (maps, width)) * rng.choice([-1.0, 1.0], (maps, width))
    stacks = []
    for k, (members, coeffs) in firsts.items():
        stack = VahlenMap(coeffs[:, None, None, None, None], k)
        f = g_translate(poles[members, None, None, None, None, :k], n=k, dim_alg=k)
        draw = functools.partial(rng.uniform, -1.8, 1.8, (len(members), _BLOCK, k))
        stacks.append((members, stack, f, *_first_accepted(draw, _stencil_samples(stack, f, DEFAULT_FD_STEP))))
    return poles, stacks


def cmd_verify_algebra(rep: Report, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)

    # product laws over Cl_2..Cl_4: 300 samples of random algebra dimension,
    # drawn in one block per dimension and evaluated in two stacked products
    # each: ab, bc, ~b~a and vv, then (ab)c and a(bc)
    dims = rng.integers(2, 5, 300)
    worst_assoc = worst_rev = worst_sq = 0.0
    for dim in (2, 3, 4):
        rows = int(np.count_nonzero(dims == dim))
        a, b, c = rng.uniform(-1.0, 1.0, (3, rows, 2**dim))
        v = rng.uniform(-2.0, 2.0, (rows, dim))
        na, nb, nc = row_norms(a), row_norms(b), row_norms(c)
        vm, ra, rb = vectors(v, dim), reversion(dim, a), reversion(dim, b)
        ab, bc, rev, sq = gp_batch(dim, np.stack((a, b, rb, vm)), np.stack((b, c, ra, vm)))
        ab_c, a_bc = gp_batch(dim, np.stack((ab, a)), np.stack((c, bc)))
        worst_assoc = max(worst_assoc, _worst(ab_c - a_bc, na * nb * nc))
        worst_rev = max(worst_rev, _worst(reversion(dim, ab) - rev, na * nb))
        sq[:, 0] += (v[:, None] @ v[..., None])[:, 0, 0]  # v.v as one BLAS dot per row
        worst_sq = max(worst_sq, _worst(sq, row_norms(vm) ** 2))
    rep.add("associativity", worst_assoc, 1e-10)
    rep.add("reversion-antiautomorphism", worst_rev, 1e-10)
    rep.add("vector-square", worst_sq, 1e-10)

    # covariance suite: per stack of one (k, m), each map's first five
    # admissible pairs of its candidate blocks, judged once per stack; the
    # residual reads the images the judge computed
    pool = _random_maps(rng, cfg.n, 40)
    worst_cov = 0.0
    try:
        for (k, m), (_, psi) in pool.items():
            stack = VahlenMap(psi.coeffs[:, None], m)  # (maps, 1, 2, 2, 2^k) against (maps, C) pairs
            draw = functools.partial(rng.uniform, -2.0, 2.0, (len(psi.coeffs), _BLOCK, 2 * cfg.n))
            pairs, images = _first_accepted(draw, _admissible_pairs(stack, cfg.n))
            x, y = pairs[..., : cfg.n], pairs[..., cfg.n :]
            res = covariance_residual(stack, x, y, images[..., 0, :], images[..., 1, :])
            base = row_norms(cauchy_kernel_G(x - y, m, k))
            worst_cov = max(worst_cov, float(np.max(res / np.maximum(base, 1e-30))))
    except VahlenError:
        # a corrupted map fails a validity check: images off grade 1 in its
        # draw, or, as a translation at n = 2, a pseudo-determinant that is
        # not scalar in its stack's evaluation
        rep.add("kernel-covariance", float("inf"), 1e-9)
        return
    rep.add("kernel-covariance", worst_cov, 1e-9)

    # pullback monogenicity suite over the first ten maps: each map is used as
    # a Moebius map of its full ambient space (flat-Dirac covariance holds
    # with exponent = ambient dimension; the Cayley matrix enters as a map of
    # R^{n+1}). The poles come in one block; per k, each map keeps its first
    # five points whose whole stencil the judge accepts, and the residuals
    # are differenced from the pullback values the judge computed there
    _, samples = _pullback_samples(rng, pool)
    worst_fd = max(float(row_norms(dirac_from_stencil(values, DEFAULT_FD_STEP)).max()) for *_, values in samples)
    rep.add("pullback-monogenicity-fd", worst_fd, 1e-5)


def _worst(diff: np.ndarray, scale) -> float:
    """The largest row norm of diff relative to its scale (floored at 1e-30)."""
    return float(np.max(row_norms(diff) / np.maximum(scale, 1e-30)))


def _neck_pairs(rng, n: int, r: float, count: int) -> np.ndarray:
    """`count` rows (x, y) of neck points at least 0.05 apart: the first such
    pairs of blocks of 1.25 count candidate pairs, with radii uniform across
    the neck and directions uniform on the sphere."""
    margin = min(0.02, (r - 1.0 / r) / 4.0)  # keeps the draw inside (1/r, r)
    rows = count + count // 4

    def draw() -> np.ndarray:
        rho = rng.uniform(1.0 / r + margin, r - margin, (1, rows, 2, 1))
        v = rng.normal(size=(1, rows, 2, n))
        return (rho * (v / row_norms(v)[..., None])).reshape(1, rows, 2 * n)

    def judge(pairs):
        apart = row_norms(pairs[..., :n] - pairs[..., n:]) >= 0.05
        return apart, np.zeros_like(apart)

    return _first_accepted(draw, judge, count)[0][0]


def cmd_verify_kernel(rep: Report, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    m = make_manifold(cfg)

    # overlap consistency; residual relative to the direct evaluation norm so
    # the bound is meaningful for thin necks where the kernel is large
    px, py = (ManifoldPoint(2, c) for c in np.split(_neck_pairs(rng, m.n, m.r, 200), 2, axis=1))
    res = overlap_consistency_residual(m, px, py)
    ref = row_norms(cauchy_kernel_G(embed(m, px) - embed(m, py), m.n, m.n + 1))
    rep.add("overlap-consistency", float(np.max(res / np.maximum(ref, 1e-30))), 1e-9)

    # case coherence: the kernel is continuous where y crosses from neck to
    # chart-2 body (the overlap-rep / cross-glue branches agree at the seam)
    direction = np.eye(m.n)[0]
    x = ManifoldPoint(1, 3.1 * direction)
    eps = 1e-7
    v_in = kernel_CM(m, x, ManifoldPoint(2, (m.r - eps) * direction)).coeffs
    v_out = kernel_CM(m, x, ManifoldPoint(2, (m.r + eps) * direction)).coeffs
    rep.add("case-coherence-seam-jump", float(row_norms(v_in - v_out)), 1e-6)

    # the diagonal itself raises DiagonalError; near it the kernel must blow
    # up as 1/d^(n-1), checked at distances d of 1e-2 and 1e-3
    x = ManifoldPoint(1, 3.0 * direction)
    try:
        kernel_CM(m, x, x)
        diag = 1.0
    except DiagonalError:
        diag = 0.0
    rep.add("diagonal-error-surfaced", diag, 0.0)
    near = ManifoldPoint(1, x.coord + np.array([[1e-2], [1e-3]]) * direction)
    d, val = row_norms(embed(m, x) - embed(m, near)), row_norms(kernel_CM(m, x, near).coeffs)
    rep.add("diagonal-blowup-strength", float(np.max(abs(val * d ** (m.n - 1) - 1.0))), 1e-3)


def cross_glue_target(n: int, r: float) -> np.ndarray:
    """The chart-2 point verify-cauchy reproduces across the glue: (2.5, 1[, 0]),
    of norm 2.69, scaled outward to norm 1.25 r when r > 2.15 so that it stays
    in chart 2's body (|y| >= r), where the kernel takes its cross-glue case."""
    y = np.pad([2.5, 1.0], (0, n - 2))
    if r > 2.15:
        y *= 1.25 * r / row_norms(y)
    return y


def cmd_verify_cauchy(rep: Report, cfg: RunConfig):
    m = make_manifold(cfg)

    sec = section_from_germ(m, g_translate(np.pad([4.0], (0, m.n - 1)), n=m.n, dim_alg=m.n + 1))
    interior = ManifoldPoint(1, np.pad([0.6], (0, m.n - 1)))

    order_same = cfg.order if m.n == 2 else min(cfg.order, 48)
    make = chart_circle if m.n == 2 else chart_sphere
    wide, near_neck = (make(m, 1, np.zeros(m.n), rad, order_same, interior=interior) for rad in (3.0, 2.4))

    y_same = ManifoldPoint(1, np.pad([1.2, 0.4], (0, m.n - 2)))
    csec = section_from_germ(m, constant_field(np.eye(2 ** (m.n + 1))[0], m.n))
    y_cross = ManifoldPoint(2, cross_glue_target(m.n, m.r))
    final = 64 if m.n == 3 else min(cfg.order, 256)
    orders = [16, 32, 64] if m.n == 3 else sorted({32, 64, 128, final})
    # one node table: each node set, section list and target evaluated once
    jobs = [
        (wide, y_same, [sec, csec], [order_same]),
        (wide, y_cross, [sec], orders),
        (near_neck, y_same, [sec], [order_same]),
    ]
    same, cross, near = cauchy_integrals(m, jobs)

    # same-chart reproduction
    exact = integration.representatives(m, y_same, [sec.germ, csec.germ])
    rep.add("same-chart-reproduction", float(row_norms(same.value[0, 0] - exact[0])), 1e-6)
    # constant-germ section reproduction
    rep.add("constant-germ-reproduction", float(row_norms(same.value[1, 0] - exact[1])), 1e-8)

    # cross-glue reproduction with convergence table
    errs = row_norms(cross.value[0] - integration.representatives(m, y_cross, [sec.germ])[0]).tolist()
    table = zip(orders, errs, cross.estimated_error[0].tolist(), cross.nodes_used.tolist())
    rows = [f"{od},{e:.6e},{est:.6e},{nodes}" for od, e, est, nodes in table]
    rep.add("cross-glue-reproduction", errs[orders.index(final)], 1e-4)
    # monotone decay until the rounding plateau
    plateau = 1e-12
    mono = max((later / max(e, 1e-30) for e, later in zip(errs, errs[1:]) if e > plateau), default=0.0)
    rep.add("cross-glue-monotone-decay", 0.0 if mono < 1.0 else mono, 1.0)
    rep.add_csv("cross-glue-convergence", "order,error,estimated_error,nodes", rows)

    # contour independence: the same-chart integral above against a contour
    # hugging the neck
    combined = 2.0 * float(same.estimated_error[0, 0] + near.estimated_error[0, 0]) + 1e-12
    rep.add("contour-independence", float(row_norms(same.value[0, 0] - near.value[0, 0])) / combined, 1.0)


def cmd_hardy(rep: Report, cfg: RunConfig):
    m = make_manifold(cfg)
    sec = section_from_germ(m, g_translate(np.array([4.0, 0.0]), n=2, dim_alg=3))
    # off-centre, so that the weights' magnitudes vary along it; the hole |x| <= 1/r stays inside
    interior = ManifoldPoint(1, np.array([0.6, 0.0]))
    surf = chart_circle(m, 1, np.array([-0.3, 0.2]), (3.0, 2.6), cfg.order, interior=interior)

    res = plemelj_projections(m, surf, sec.value_at)
    g_plus, g_minus, g = res.parts
    defect, defect_half = (float(row_norms(part).max()) for part in (g_minus, res.half[1]))
    rep.add("monogenic-trace-defect", defect, 1e-3)
    rep.add("exact-partition", float(row_norms(g_plus + g_minus - g).max()), 1e-14)
    ratio = defect / max(defect_half, 1e-30)
    # doubling must at least halve the defect, unless already at rounding
    ok = ratio <= 0.5 or defect <= 1e-12
    rep.add("defect-halving-on-doubling", 0.0 if ok else ratio, 0.5)


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "verify-kernel": cmd_verify_kernel,
    "verify-cauchy": cmd_verify_cauchy,
    "hardy": cmd_hardy,
}


# The falsification controls: per config key, the binding (owner, attribute)
# that a run rebinds while the key is nonzero, and its replacement, built from
# the bound value and the key's value. Each binding is read at call time.
CONTROLS = {
    # every conformal weight J takes exponent m + shift; the kernel keeps m
    "break_weight": (
        moebius,
        "weight_J_rows",
        lambda rows, shift: lambda psi, x: rows(
            dataclasses.replace(psi, kernel_exponent=psi.kernel_exponent + shift), x
        ),
    ),
    "break_normal": (integration, "REPRODUCING_NORMAL_SIGN", lambda sign, _: -sign),
    "corrupt_vahlen": (sys.modules[__name__], "_random_maps", _corrupted),
}


@contextlib.contextmanager
def patched(patches):
    """Rebind each (owner, attribute, replace, *args) of patches, in order,
    to replace(current value, *args), so that later patches wrap earlier
    ones; every binding is restored on exit, also when the body raises."""
    with contextlib.ExitStack() as restore:
        for owner, attr, replace, *args in patches:
            restore.callback(setattr, owner, attr, getattr(owner, attr))
            setattr(owner, attr, replace(getattr(owner, attr), *args))
        yield


def run_suite(command: str, cfg: RunConfig) -> tuple[str, int]:
    """Run one suite on the report titled "<command> report", under the
    CONTROLS rows that cfg switches on: the report's text and the exit
    status, 0 exactly when every property passes."""
    rep = Report(f"{command} report", cfg)
    with patched((*CONTROLS[key], getattr(cfg, key)) for key in CONTROLS if getattr(cfg, key)):
        COMMANDS[command](rep, cfg)
    return rep.finish()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(prog="sphereglue")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        text, status = run_suite(args.command, cfg)
    except Exception as exc:  # one line naming suite, config and exception
        print(f"{args.command} error: {config_line(cfg)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
