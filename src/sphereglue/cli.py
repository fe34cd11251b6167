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
import dataclasses
import sys

import numpy as np

from .algebra import gp_batch, reversion, vectors
from .fields import constant_field, dirac_left_fd, fd_stencil, g_translate, moebius_pullback
from .integration import (
    cauchy_integrals,
    chart_circle,
    chart_sphere,
    plemelj_projections,
    section_from_germ,
)
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
    kind: str = "two_spheres"
    n: int = 2
    r: float = 2.0
    scale1: float = 1.0
    scale2: float = 1.0
    seed: int = 0
    order: int = 256
    out: str | None = None
    # falsification controls
    break_weight: int = 0
    break_normal: int = 0
    corrupt_vahlen: int = 0


_INT_KEYS = {"n", "seed", "order", "break_weight", "break_normal", "corrupt_vahlen"}
_FLOAT_KEYS = {"r", "scale1", "scale2"}
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
            if key in _INT_KEYS:
                setattr(cfg, key, int(val))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(val))
            elif key in ("kind", "out"):
                setattr(cfg, key, val)
            else:
                raise ValueError(f"unknown config key {key!r}")
    for key in ("seed", "order", "out"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if cfg.kind not in _KINDS:
        raise ValueError(f"kind must be one of {', '.join(_KINDS)}, got {cfg.kind!r}")
    if cfg.n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if not cfg.r > 1.0:
        raise ValueError("r must exceed 1")
    for key in ("scale1", "scale2"):
        if not getattr(cfg, key) > 0.0:
            raise ValueError(f"{key} must be > 0")
    if cfg.order < 4:
        raise ValueError("order must be >= 4")
    if cfg.n + cfg.break_weight < 1:
        raise ValueError("break_weight must exceed -n")
    # the set-up of a run may build a config without naming a command
    if getattr(args, "command", None) == "hardy" and cfg.n != 2:
        raise ValueError(f"n must be 2 for hardy, got {cfg.n}")
    return cfg


def make_manifold(cfg: RunConfig):
    """The configured manifold; break_weight shifts every chart-map weight."""
    if cfg.kind == "two_spheres":
        return two_spheres(cfg.n, cfg.r, (cfg.scale1, cfg.scale2), cfg.break_weight)
    if cfg.kind == "plane_sphere":
        return plane_sphere(cfg.n, cfg.r, cfg.scale2, cfg.break_weight)
    raise ValueError(f"unknown manifold kind {cfg.kind!r}")


@dataclasses.dataclass
class Record:
    name: str
    residual: float
    threshold: float

    @property
    def verdict(self) -> str:
        return "pass" if self.residual <= self.threshold else "fail"

    def line(self) -> str:
        res, thr = self.residual, self.threshold
        return f"property={self.name} residual={res:.6e} threshold={thr:.6e} verdict={self.verdict}"


def config_line(cfg: RunConfig) -> str:
    return (
        f"config kind={cfg.kind} n={cfg.n} r={cfg.r:g} "
        f"scale1={cfg.scale1:g} scale2={cfg.scale2:g} "
        f"seed={cfg.seed} order={cfg.order} "
        f"break_weight={cfg.break_weight} break_normal={cfg.break_normal} "
        f"corrupt_vahlen={cfg.corrupt_vahlen}"
    )


class Report:
    def __init__(self, title: str, cfg: RunConfig):
        self.lines = [f"# sphereglue {title}", config_line(cfg)]
        self.records: list[Record] = []

    def add(self, name: str, residual: float, threshold: float):
        rec = Record(name, residual, threshold)
        self.records.append(rec)
        self.lines.append(rec.line())

    def add_csv(self, title: str, header: str, rows: list[str]):
        self.lines += [f"csv {title}", header, *rows]

    def finish(self) -> tuple[str, int]:
        ok = all(r.verdict == "pass" for r in self.records)
        self.lines.append(f"summary properties={len(self.records)} result={'pass' if ok else 'fail'}")
        return "\n".join(self.lines) + "\n", 0 if ok else 1


def _random_maps(rng, n: int, count: int, corrupt: bool = False):
    """Sample from translations, the neck inversion, Cayley, and random
    compositions of translations with the neck inversion."""
    maps = []
    while len(maps) < count:
        kind = rng.integers(0, 4)
        if kind == 0:
            maps.append(translation_map(rng.uniform(-2.0, 2.0, n), n, n))
        elif kind == 1:
            maps.append(neck_inversion(n))
        elif kind == 2:
            maps.append(cayley(n))
        else:
            inner = compose(neck_inversion(n), translation_map(rng.uniform(-2.0, 2.0, n), n, n))
            maps.append(compose(translation_map(rng.uniform(-2.0, 2.0, n), n, n), inner))
    if corrupt and maps:
        # a bivector 0.25 e1e2 in `a` leaves no map of the pool a valid Vahlen matrix
        coeffs = maps[0].coeffs.copy()
        coeffs[0, 0, 0b11] += 0.25
        maps[0] = dataclasses.replace(maps[0], coeffs=coeffs)
    return maps


def _draw_accepted(rng, count: int, low: float, high: float, width: int, judge) -> np.ndarray:
    """`count` rows uniform in [low, high)^width, as a loop drawing and judging
    one row at a time finds them. judge(rows) returns per row whether it is
    accepted and whether that loop would raise VahlenError on it. A block
    holds only as many rows as are still missing, so the loop would reach
    every row of it up to the first raising one, and the generator advances
    exactly as in that loop until something raises."""
    kept = []
    while count:
        rows = rng.uniform(low, high, (count, width))
        accepted, raising = judge(rows)
        if raising.any():
            raise VahlenError("invalid Vahlen coefficients: image is not grade-1")
        kept.append(rows[accepted])
        count -= int(accepted.sum())
    return np.concatenate(kept)


def _admissible_pairs(psi, n: int):
    """Judge rows (x, y): apart, with images finite and apart, and the map
    well away from singular at x."""
    k, (_, _, c, d) = psi.ambient_dim, psi.rows

    def judge(rows):
        x, y = rows[:, :n], rows[:, n:]
        apart = np.linalg.norm(x - y, axis=-1) >= 0.2
        img = apply(psi, np.stack((x, y)), raise_invalid=False)
        px, py = img.points
        den_x = np.linalg.norm(gp_batch(k, c, vectors(x, k)) + d, axis=-1)
        accepted = apart & img.finite.all(0) & (np.linalg.norm(px - py, axis=-1) >= 1e-3) & (den_x >= 0.1)
        return accepted, apart & ~img.valid.all(0)

    return judge


def _stencil_samples(psi, f, h: float):
    """Judge finite-difference sample points of the pullback of f by psi: the
    pullback must be defined at the point and on its whole stencil, where the
    weight must also be regular. The stencil is every point the
    finite-difference operator evaluates, at both of its steps. A grade-1
    failure at the point raises; one on the stencil only rejects the point."""

    def judge(rows):
        centre = apply(psi, rows, raise_invalid=False)
        stencil = fd_stencil(rows, h)
        around = apply(psi, stencil, raise_invalid=False)
        _, regular = weight_J_rows(psi, stencil)
        defined = around.finite & around.valid & regular & f.domain(around.points)
        accepted = centre.finite & f.domain(centre.points) & defined.all((-3, -2, -1))
        return accepted, ~centre.valid

    return judge


def cmd_verify_algebra(cfg: RunConfig) -> tuple[str, int]:
    rng = np.random.default_rng(cfg.seed)
    rep = Report("verify-algebra report", cfg)

    # product laws over Cl_2..Cl_4: the samples are drawn one at a time, then
    # evaluated together per algebra dimension
    drawn = {dim: ([], [], []) for dim in (2, 3, 4)}
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        abc = rng.uniform(-1.0, 1.0, (3, 2**dim))
        v = rng.uniform(-2.0, 2.0, dim)
        for store, value in zip(drawn[dim], (abc, v, v @ v)):
            store.append(value)
    worst_assoc = worst_rev = worst_sq = 0.0
    for dim, (abc, v, vv) in drawn.items():
        if not abc:
            continue
        a, b, c = np.array(abc).transpose(1, 0, 2)
        na, nb, nc = (np.linalg.norm(t, axis=-1) for t in (a, b, c))
        ab, ra, rb = gp_batch(dim, a, b), reversion(dim, a), reversion(dim, b)
        assoc = gp_batch(dim, ab, c) - gp_batch(dim, a, gp_batch(dim, b, c))
        worst_assoc = max(worst_assoc, _worst(assoc, na * nb * nc))
        worst_rev = max(worst_rev, _worst(reversion(dim, ab) - gp_batch(dim, rb, ra), na * nb))
        vm = vectors(np.array(v), dim)
        sq = gp_batch(dim, vm, vm)
        sq[:, 0] += vv
        worst_sq = max(worst_sq, _worst(sq, np.linalg.norm(vm, axis=-1) ** 2))
    rep.add("associativity", worst_assoc, 1e-10)
    rep.add("reversion-antiautomorphism", worst_rev, 1e-10)
    rep.add("vector-square", worst_sq, 1e-10)

    # covariance suite: five admissible pairs per map, drawn map by map (they
    # decide where the next map's draws start), judged per stack of one (k, m)
    maps = _random_maps(rng, cfg.n, 40, corrupt=bool(cfg.corrupt_vahlen))
    groups: dict[tuple[int, int], list] = {}
    worst_cov = 0.0
    try:
        for psi in maps:
            pairs = _draw_accepted(rng, 5, -2.0, 2.0, 2 * cfg.n, _admissible_pairs(psi, cfg.n))
            groups.setdefault((psi.ambient_dim, psi.kernel_exponent), []).append((psi.coeffs, pairs))
        for (k, m), members in groups.items():
            coeffs, pairs = (np.array(t) for t in zip(*members))
            stack = VahlenMap(coeffs[:, None], m)  # (maps, 1, 2, 2, 2^k) against (maps, 5) pairs
            x, y = pairs[..., : cfg.n], pairs[..., cfg.n :]
            res = covariance_residual(stack, x, y, *apply(stack, np.stack((x, y))).points)
            base = np.linalg.norm(cauchy_kernel_G(x - y, m, k), axis=-1)
            worst_cov = max(worst_cov, float(np.max(res / np.maximum(base, 1e-30))))
    except VahlenError:
        # a corrupted map fails the grade-1 validity check in its draw or stack
        rep.add("kernel-covariance", float("inf"), 1e-9)
        return rep.finish()
    rep.add("kernel-covariance", worst_cov, 1e-9)

    # pullback monogenicity suite: each map is used as a Moebius map of its
    # full ambient space (flat-Dirac covariance holds with exponent = ambient
    # dimension; the Cayley matrix enters as a map of R^{n+1})
    worst_fd = 0.0
    for psi in maps[:10]:
        k = psi.ambient_dim
        if psi.kernel_exponent != k:
            psi = dataclasses.replace(psi, kernel_exponent=k)
        pole = rng.uniform(2.5, 4.0, k) * rng.choice([-1.0, 1.0], k)
        f = g_translate(pole, n=k, dim_alg=k)
        x = _draw_accepted(rng, 5, -1.8, 1.8, k, _stencil_samples(psi, f, 1e-4))
        resid = dirac_left_fd(moebius_pullback(psi, f, dim_in=k), x, 1e-4)
        worst_fd = max(worst_fd, float(np.linalg.norm(resid, axis=-1).max()))
    rep.add("pullback-monogenicity-fd", worst_fd, 1e-5)
    return rep.finish()


def _worst(diff: np.ndarray, scale) -> float:
    """The largest row norm of diff relative to its scale (floored at 1e-30)."""
    return float(np.max(np.linalg.norm(diff, axis=-1) / np.maximum(scale, 1e-30)))


def cmd_verify_kernel(cfg: RunConfig) -> tuple[str, int]:
    rng = np.random.default_rng(cfg.seed)
    rep = Report("verify-kernel report", cfg)
    m = make_manifold(cfg)

    def neck_point():
        margin = min(0.02, (m.r - 1.0 / m.r) / 4.0)  # keeps the draw inside (1/r, r)
        rho = float(rng.uniform(1.0 / m.r + margin, m.r - margin))
        v = rng.normal(size=m.n)
        v /= np.linalg.norm(v)
        return rho * v

    # overlap consistency; residual relative to the direct evaluation norm so
    # the bound is meaningful for thin necks where the kernel is large
    pairs = []
    while len(pairs) < 200:
        x2, y2 = neck_point(), neck_point()
        if np.linalg.norm(x2 - y2) >= 0.05:
            pairs.append((x2, y2))
    px, py = (ManifoldPoint(2, np.array(c)) for c in zip(*pairs))
    res = overlap_consistency_residual(m, px, py)
    ref = np.linalg.norm(cauchy_kernel_G(embed(m, px) - embed(m, py), m.n, m.n + 1), axis=-1)
    rep.add("overlap-consistency", float(np.max(res / np.maximum(ref, 1e-30))), 1e-9)

    # case coherence: the kernel is continuous where y crosses from neck to
    # chart-2 body (the overlap-rep / cross-glue branches agree at the seam)
    direction = np.eye(m.n)[0]
    x = ManifoldPoint(1, 3.1 * direction)
    eps = 1e-7
    v_in = kernel_CM(m, x, ManifoldPoint(2, (m.r - eps) * direction)).coeffs
    v_out = kernel_CM(m, x, ManifoldPoint(2, (m.r + eps) * direction)).coeffs
    rep.add("case-coherence-seam-jump", np.linalg.norm(v_in - v_out), 1e-6)

    # diagonal request surfaces a structured error
    try:
        kernel_CM(m, ManifoldPoint(1, 3.0 * direction), ManifoldPoint(1, 3.0 * direction))
        diag = 1.0
    except DiagonalError:
        diag = 0.0
    rep.add("diagonal-error-surfaced", diag, 0.0)

    # diagonal blow-up strength
    worst_blow = 0.0
    base_pt = 3.0 * direction
    for eps in (1e-2, 1e-3):
        y = ManifoldPoint(1, base_pt + eps * direction)
        d = np.linalg.norm(embed(m, ManifoldPoint(1, base_pt)) - embed(m, y))
        val = np.linalg.norm(kernel_CM(m, ManifoldPoint(1, base_pt), y).coeffs)
        worst_blow = max(worst_blow, abs(val * d ** (m.n - 1) - 1.0))
    rep.add("diagonal-blowup-strength", worst_blow, 1e-3)
    return rep.finish()


def cross_glue_target(n: int, r: float) -> np.ndarray:
    """The chart-2 point verify-cauchy reproduces across the glue: (2.5, 1[, 0]),
    of norm 2.69, scaled outward to norm 1.25 r when r > 2.15 so that it stays
    in chart 2's body (|y| >= r), where the kernel takes its cross-glue case."""
    y = np.pad([2.5, 1.0], (0, n - 2))
    if r > 2.15:
        y *= 1.25 * r / np.linalg.norm(y)
    return y


def cmd_verify_cauchy(cfg: RunConfig) -> tuple[str, int]:
    rep = Report("verify-cauchy report", cfg)
    m = make_manifold(cfg)
    nsign = -1.0 if not cfg.break_normal else 1.0

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
    # one pass per contour: its integrals share node sets, kernels and section values
    requests = [(sec, y_same, None), (csec, y_same, None), *((sec, y_cross, od) for od in orders)]
    res, res_c, *r_ods = cauchy_integrals(m, wide, requests, nsign)
    (r_b,) = cauchy_integrals(m, near_neck, [(sec, y_same, None)], nsign)

    # same-chart reproduction
    rep.add("same-chart-reproduction", (res.value - sec.value_at(y_same)).norm(), 1e-6)
    # constant-germ section reproduction
    rep.add("constant-germ-reproduction", (res_c.value - csec.value_at(y_same)).norm(), 1e-8)

    # cross-glue reproduction with convergence table
    exact = sec.value_at(y_cross)
    errs = [(r_od.value - exact).norm() for r_od in r_ods]
    rows = [f"{od},{e:.6e},{r.estimated_error:.6e},{r.nodes_used}" for od, e, r in zip(orders, errs, r_ods)]
    rep.add("cross-glue-reproduction", errs[orders.index(final)], 1e-4)
    # monotone decay until the rounding plateau
    plateau = 1e-12
    mono = max((later / max(e, 1e-30) for e, later in zip(errs, errs[1:]) if e > plateau), default=0.0)
    rep.add("cross-glue-monotone-decay", 0.0 if mono < 1.0 else mono, 1.0)
    rep.add_csv("cross-glue-convergence", "order,error,estimated_error,nodes", rows)

    # contour independence: the same-chart integral above against a contour
    # hugging the neck
    combined = 2.0 * (res.estimated_error + r_b.estimated_error) + 1e-12
    rep.add("contour-independence", (res.value - r_b.value).norm() / combined, 1.0)
    return rep.finish()


def cmd_hardy(cfg: RunConfig) -> tuple[str, int]:
    rep = Report("hardy report", cfg)
    m = make_manifold(cfg)
    sec = section_from_germ(m, g_translate(np.array([4.0, 0.0]), n=2, dim_alg=3))
    interior = ManifoldPoint(1, np.array([0.6, 0.0]))
    surf = chart_circle(m, 1, np.zeros(2), 3.0, cfg.order, interior=interior)

    nn = cfg.order
    res = plemelj_projections(m, surf, lambda p: sec.value_at(p), n_nodes=nn)
    defect = max(v.norm() for v in res.g_minus)
    part = max((res.g_plus[i] + res.g_minus[i] - res.g[i]).norm() for i in range(nn))
    rep.add("monogenic-trace-defect", defect, 1e-3)
    rep.add("exact-partition", part, 1e-14)

    res_half = plemelj_projections(m, surf, lambda p: sec.value_at(p), n_nodes=nn // 2)
    defect_half = max(v.norm() for v in res_half.g_minus)
    ratio = defect / max(defect_half, 1e-30)
    # doubling must at least halve the defect, unless already at rounding
    ok = ratio <= 0.5 or defect <= 1e-12
    rep.add("defect-halving-on-doubling", 0.0 if ok else ratio, 0.5)
    return rep.finish()


COMMANDS = {
    "verify-algebra": cmd_verify_algebra,
    "verify-kernel": cmd_verify_kernel,
    "verify-cauchy": cmd_verify_cauchy,
    "hardy": cmd_hardy,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sphereglue")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        text, status = COMMANDS[args.command](cfg)
    except Exception as exc:  # one line naming suite, config and exception
        print(f"{args.command} error: {config_line(cfg)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
