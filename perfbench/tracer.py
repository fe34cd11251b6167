"""Layer tracing for the benchmark, installed from outside the package.

Coarse layer calls become spans (name, start, end, parent span) kept in
memory. The Clifford product runs about 10^5 times a pass, so it is counted
and timed in aggregate instead; its time is still charged to the enclosing
span as child time. A span's self time is its duration minus its child time.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); the span name starts with its layer.
SPANS = (
    ("cli", "main", "cli.main"),
    ("moebius", "apply", "moebius.apply"),
    ("moebius", "weight_J", "moebius.weight_J"),
    ("moebius", "inverse", "moebius.inverse"),
    ("fields", "dirac_left_fd", "fields.dirac_left_fd"),
    ("manifold", "two_spheres", "manifold.build"),
    ("manifold", "plane_sphere", "manifold.build"),
    ("manifold", "chart_transfer", "manifold.chart_transfer"),
    ("kernel", "kernel_CM", "kernel.kernel_CM"),
    ("kernel", "overlap_consistency_residual", "kernel.overlap_consistency"),
    ("integration", "cauchy_integral", "integration.cauchy_integral"),
    ("integration", "plemelj_projections", "integration.plemelj"),
)

# What a span keeps of its function's result.
TAGS = {
    "kernel.kernel_CM": lambda kv: kv.case_tag,
    "integration.cauchy_integral": lambda rep: rep.nodes_used,
}

KERNEL_CASES = ("same-chart", "overlap-rep", "cross-glue")

# Span names reported as calls and self time, and the product.
REPORTED = (
    "moebius.apply",
    "moebius.weight_J",
    "moebius.inverse",
    "fields.dirac_left_fd",
    "manifold.chart_transfer",
    "kernel.kernel_CM",
    "kernel.overlap_consistency",
    "integration.cauchy_integral",
    "integration.plemelj",
)

_NAME, _START, _END, _PARENT, _CHILD, _TAG = range(6)


class Tracer:
    """Wraps the layer functions while used as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.product_calls = 0
        self.product_time = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, func, name in SPANS:
            original = getattr(importlib.import_module(f"sphereglue.{module}"), func)
            self._replace(original, self._span(name, original))
        mv = importlib.import_module("sphereglue.algebra").Multivector
        self._undo.append((mv, "__mul__", mv.__mul__))
        mv.__mul__ = self._product(mv.__mul__, mv)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _replace(self, original, wrapper) -> None:
        # Modules import functions by name, so every module binding is patched.
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "sphereglue" or mod_name.startswith("sphereglue."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def _span(self, name, fn):
        spans, stack, tag = self.spans, self._stack, TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - start
            if tag is not None:
                rec[_TAG] = tag(out)
            return out

        return wrapper

    def _product(self, mul, mv_type):
        spans, stack = self.spans, self._stack

        @functools.wraps(mul)
        def product(a, b):
            if not isinstance(b, mv_type):
                return mul(a, b)
            start = perf_counter()
            out = mul(a, b)
            took = perf_counter() - start
            self.product_calls += 1
            self.product_time += took
            if stack:
                spans[stack[-1]][_CHILD] += took
            return out

        return product

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def layer_metrics(self, passes: int, pass_time: float) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics for `passes` traced passes that took
        `pass_time` seconds in total."""
        calls, self_s, cases = Counter(), defaultdict(float), Counter()
        nodes = kernel_in_integral = apply_in_inverse = 0
        for i, (name, start, end, _, child, tag) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child
            if name == "kernel.kernel_CM":
                cases[tag] += 1
                kernel_in_integral += self._has_ancestor(i, "integration.cauchy_integral")
            elif name == "integration.cauchy_integral":
                nodes += tag
            elif name == "moebius.apply":
                apply_in_inverse += self._has_ancestor(i, "moebius.inverse")

        covered = self.product_time + sum(t for n, t in self_s.items() if n != "cli.main")
        out = {
            "algebra.product.calls": (self.product_calls / passes, "count/pass"),
            "algebra.product.self_s": (self.product_time / passes, "s/pass"),
            "cli.self_s": ((pass_time - covered) / passes, "s/pass"),
        }
        for name in REPORTED:
            out[f"{name}.calls"] = (calls[name] / passes, "count/pass")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s/pass")
        for case in KERNEL_CASES:
            out[f"kernel.kernel_CM.calls.{case}"] = (cases[case] / passes, "count/pass")
        out["moebius.apply.in_inverse_share"] = (_share(apply_in_inverse, calls["moebius.apply"]), "ratio")
        out["manifold.chart_transfer.calls_per_manifold"] = (
            _share(calls["manifold.chart_transfer"], calls["manifold.build"]), "count/manifold")
        out["integration.nodes_used"] = (nodes / passes, "count/pass")
        out["integration.useful_node_share"] = (_share(nodes, kernel_in_integral), "ratio")
        return out


def _share(part: float, whole: float) -> float:
    """part / whole, or 0 when the workload never reaches the layer."""
    return part / whole if whole else 0.0
