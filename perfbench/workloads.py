"""The benchmark's workloads and the verdict table that gates every pass.

A workload is a list of CLI runs. Each run names its suite, its config and
what it must report: a positive run must pass every property of its suite, a
negative control must fail as a whole. `allowed_fail` lists the known
defects of the program that a run may show. An outcome the table allows is
counted as a known defect; one it does not allow is a failed operation and
makes the benchmark result incorrect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PROPERTIES = {
    "verify-algebra": (
        "associativity",
        "reversion-antiautomorphism",
        "vector-square",
        "kernel-covariance",
        "pullback-monogenicity-fd",
    ),
    "verify-kernel": (
        "overlap-consistency",
        "case-coherence-seam-jump",
        "diagonal-error-surfaced",
        "diagonal-blowup-strength",
    ),
    "verify-cauchy": (
        "same-chart-reproduction",
        "constant-germ-reproduction",
        "cross-glue-reproduction",
        "cross-glue-monotone-decay",
        "contour-independence",
    ),
    "hardy": (
        "monogenic-trace-defect",
        "exact-partition",
        "defect-halving-on-doubling",
    ),
}

# Properties whose residual is a 0/1 flag or a clamped ratio, not an error
# size; they carry no accuracy margin.
BOOLEAN = {"diagonal-error-surfaced", "cross-glue-monotone-decay", "defect-halving-on-doubling"}

MARGIN_CAP = 16.0

# The control itself is the operation of a negative run.
CONTROL = "control"


@dataclass(frozen=True)
class Run:
    suite: str
    label: str
    config: tuple[tuple[str, object], ...]
    extra: tuple[str, ...] = ()
    negative: bool = False
    seed: int | None = None  # None: the workload seed
    allowed_fail: frozenset[str] = frozenset()

    def config_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.config)


def _config(**overrides) -> tuple[tuple[str, object], ...]:
    values = {"kind": "two_spheres", "n": 2, "r": 2.0}
    values.update(overrides)
    return tuple(values.items())


# ROADMAP item 1: scale1 != 1 breaks the Cauchy properties (four of the five
# at order 128, all five at 256), and plane_sphere fails overlap-consistency
# at both n.
_SCALE1_DEFECT = frozenset(PROPERTIES["verify-cauchy"])
_PLANE_OVERLAP_DEFECT = frozenset({"overlap-consistency"})

# verify-algebra at n = 2: the finite-difference residual of a random Moebius
# pullback exceeds its 1e-5 bound at some seeds (4, 12, 18, 20, 27 and 35 of
# seeds 0-39); the stencil then sits close to the pullback's pole.
_PULLBACK_FD_DEFECT = frozenset({"pullback-monogenicity-fd"})

# corrupt_vahlen adds 0.25 to the `a` coefficient of the first random map.
# When that map is a translation or the neck inversion the result is still a
# valid Vahlen map, so the control passes: about 1 seed in 3 over seeds 0-23.
# The control runs at the fixed seeds 0-2 (seed 2 escapes), so every pass
# shows the defect and does the same work whatever the workload seed.
_CORRUPT_ESCAPE = frozenset({CONTROL})

# hardy and verify-cauchy at n = 2 run below the CLI default order 256, so
# that one CLI run takes 0.5-1.5 s and a timed run holds enough passes for
# their median to be steady on a shared host. The cost keeps its shape: hardy
# is still dominated by its O(N^2) same-chart kernel calls, and 128 is the
# lowest order at which verify-cauchy's convergence table still decays.
# Every property passes at these orders.
_HARDY_ORDER = ("--order", "64")
_CAUCHY_ORDER = ("--order", "128")

WORKLOADS: dict[str, tuple[Run, ...]] = {
    "hardy-n2": (Run("hardy", "two_spheres-n2", _config(), extra=_HARDY_ORDER),),
    "cauchy-n2": (
        Run("verify-cauchy", "two_spheres-n2", _config(), extra=_CAUCHY_ORDER),
        Run("verify-cauchy", "two_spheres-n2-scale1", _config(scale1=1.5), extra=_CAUCHY_ORDER,
            allowed_fail=_SCALE1_DEFECT),
        Run("verify-cauchy", "plane_sphere-n2", _config(kind="plane_sphere"), extra=_CAUCHY_ORDER),
    ),
    "checks": (
        Run("verify-algebra", "n2", _config(), allowed_fail=_PULLBACK_FD_DEFECT),
        Run("verify-algebra", "n3", _config(n=3)),
        Run("verify-kernel", "two_spheres-n2", _config()),
        Run("verify-kernel", "two_spheres-n3", _config(n=3)),
        Run("verify-kernel", "plane_sphere-n2", _config(kind="plane_sphere"),
            allowed_fail=_PLANE_OVERLAP_DEFECT),
        Run("verify-kernel", "plane_sphere-n3", _config(kind="plane_sphere", n=3),
            allowed_fail=_PLANE_OVERLAP_DEFECT),
        *(
            Run("verify-algebra", f"corrupt_vahlen-seed{s}", _config(corrupt_vahlen=1),
                negative=True, seed=s, allowed_fail=_CORRUPT_ESCAPE)
            for s in range(3)
        ),
        Run("verify-cauchy", "break_weight", _config(break_weight=1),
            extra=("--order", "64"), negative=True),
        Run("verify-cauchy", "break_normal", _config(break_normal=1),
            extra=("--order", "64"), negative=True),
    ),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # outcomes the verdict table does not allow
    defects: int = 0  # known defects the table allows
    margin_sum: float = 0.0
    margin_count: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.defects += other.defects
        self.margin_sum += other.margin_sum
        self.margin_count += other.margin_count


def parse_report(text: str) -> tuple[list[tuple[str, float, float, str]], str | None]:
    """Property lines as (name, residual, threshold, verdict), and the summary
    result."""
    props, result = [], None
    for line in text.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if line.startswith("property="):
            props.append((fields["property"], float(fields["residual"]),
                          float(fields["threshold"]), fields["verdict"]))
        elif line.startswith("summary "):
            result = fields.get("result")
    return props, result


def judge(run: Run, text: str, raised: str | None) -> tuple[Tally, list[str]]:
    """Count the run's operations against the verdict table. Returns the tally
    and the outcomes the table does not allow."""
    tally, unexpected = Tally(), []
    where = f"{run.suite} {run.label}"
    if run.negative:
        tally.attempted = 1
        if raised is not None:
            tally.failed = 1
            unexpected.append(f"{where}: raised {raised}")
        elif parse_report(text)[1] != "fail":
            if CONTROL in run.allowed_fail:
                tally.defects = 1
            else:
                tally.failed = 1
                unexpected.append(f"{where}: negative control passed")
        return tally, unexpected

    expected = PROPERTIES[run.suite]
    tally.attempted = len(expected)
    if raised is not None:
        tally.failed = len(expected)
        unexpected.append(f"{where}: raised {raised}")
        return tally, unexpected
    props, _ = parse_report(text)
    if tuple(p[0] for p in props) != expected:
        unexpected.append(f"{where}: properties {[p[0] for p in props]}")
    verdicts = {p[0]: p for p in props}
    for name in expected:
        found = verdicts.get(name)
        if found is None or found[3] != "pass":
            if found is not None and name in run.allowed_fail:
                tally.defects += 1
            else:
                tally.failed += 1
                unexpected.append(f"{where}: {name} did not pass")
        elif name not in BOOLEAN:
            _, residual, threshold, _ = found
            digits = math.log10(threshold / residual) if residual > 0 else MARGIN_CAP
            tally.margin_sum += min(digits, MARGIN_CAP)
            tally.margin_count += 1
    return tally, unexpected
