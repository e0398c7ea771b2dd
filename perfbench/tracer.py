"""In-memory span tracer that wraps qonsager functions from outside the package.

Nothing under ``src/`` is edited: a wrapper replaces a function object in every
loaded ``qonsager`` module namespace (and in module-level registries such as
``coeffs.PIPELINES``) that holds it, so call sites that imported the name
directly are covered too.  A target that no longer exists is recorded as
missing; the layer metrics that need it are then reported as absent.

A span is ``{id, name, start, end, parent, op, attrs}`` with integer
``perf_counter_ns`` times.  Spans stay in memory and are written as JSONL at
the end of a pass.  ``qcoeff._pmul`` is too hot for one span per call, so it
only feeds a call counter and a time accumulator; the wrapper's own cost per
call is measured and reported beside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path inside the module)
SPAN_TARGETS = (
    ("cli.main", "qonsager.cli", "main"),
    ("verify.verify_relation", "qonsager.verify", "verify_relation"),
    ("verify.build_delta", "qonsager.verify", "build_delta"),
    ("reducer.reduce_with_stats", "qonsager.reducer", "reduce_with_stats"),
    ("reducer.pack", "qonsager.reducer", "_pack"),
    ("reducer.unpack", "qonsager.reducer", "_unpack"),
    ("reducer.kernel", "qonsager.reducer", "_kernel.reduce_packed"),
    ("coeffs.c_recursive", "qonsager.coeffs", "c_recursive"),
    ("coeffs.c_closed", "qonsager.coeffs", "c_closed"),
    ("coeffs.c_from_polynomial", "qonsager.coeffs", "c_from_polynomial"),
    ("coeffs.c_solve", "qonsager.coeffs", "c_solve"),
    ("repcheck.matrix_point", "qonsager.repcheck", "matrix_point"),
    ("repcheck.build_evaluation_rep", "qonsager.repcheck", "build_evaluation_rep"),
    ("repcheck.calibrate_rho", "qonsager.repcheck", "calibrate_rho"),
    ("repcheck.rho_calibration_oracle", "qonsager.repcheck", "rho_calibration_oracle"),
    ("repcheck.spectral_polynomial_check", "qonsager.repcheck", "spectral_polynomial_check"),
)
COUNTER_TARGETS = (("qcoeff.pmul", "qonsager.qcoeff", "_pmul"),)


def _kernel_attrs(result) -> dict:
    _, peak, steps, passes = result
    return {"peak_words": peak, "steps": steps, "passes": passes}


def _verify_attrs(result) -> dict:
    return {"residual_terms": result.residual_terms}


ATTR_READERS = {"reducer.kernel": _kernel_attrs, "verify.verify_relation": _verify_attrs}


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


def _replace_everywhere(original, replacement) -> None:
    """Swap a function object wherever a qonsager module holds it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qonsager" or name.startswith("qonsager.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, list[int]] = {}  # name -> [calls, ns]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.op = None

    def install(self) -> None:
        for name, module, path in SPAN_TARGETS:
            original = _resolve(module, path)
            if not callable(original):
                self.missing.append(name)
                continue
            _replace_everywhere(original, self._span_wrapper(name, original))
        for name, module, path in COUNTER_TARGETS:
            original = _resolve(module, path)
            if not callable(original):
                self.missing.append(name)
                continue
            _replace_everywhere(original, self._counter_wrapper(name, original))

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        read_attrs = ATTR_READERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "start": time.perf_counter_ns(),
                "end": None,
                "parent": stack[-1] if stack else None,
                "op": self.op,
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if read_attrs is not None:
                try:
                    span["attrs"] = read_attrs(result)
                except (AttributeError, TypeError, ValueError):
                    pass
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        cell = self.counters.setdefault(name, [0, 0])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += clock() - t0

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def counter_cost_ns(calls: int = 100_000) -> float:
    """Measured extra cost of one counted call, in ns (wrapped minus bare)."""

    def bare(a, b):
        return a

    wrapped = Tracer()._counter_wrapper("calibration", bare)
    times = []
    for fn in (bare, wrapped):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(None, None)
        times.append(time.perf_counter_ns() - t0)
    return max(times[1] - times[0], 0) / calls


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the time its direct children cover (ns)."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# Layer metric -> (unit, span names it needs).  Values are computed in
# layer_metrics(); a metric whose spans were not wrapped is absent (None).
LAYER_METRICS = {
    "reducer.kernel_s": ("s", ("reducer.kernel",)),
    "reducer.steps": ("count", ("reducer.kernel",)),
    "reducer.passes": ("count", ("reducer.kernel",)),
    "reducer.steps_per_s": ("1/s", ("reducer.kernel",)),
    "reducer.peak_words": ("count", ("reducer.kernel",)),
    "reducer.pack_s": ("s", ("reducer.pack",)),
    "reducer.unpack_s": ("s", ("reducer.unpack",)),
    "reducer.calls": ("count", ("reducer.reduce_with_stats",)),
    "verify.build_delta_s": ("s", ("verify.build_delta",)),
    "verify.residual_terms": ("count", ("verify.verify_relation",)),
    "coeffs.recursive_s": ("s", ("coeffs.c_recursive",)),
    "coeffs.closed_s": ("s", ("coeffs.c_closed",)),
    "coeffs.polynomial_s": ("s", ("coeffs.c_from_polynomial",)),
    "coeffs.solve_s": ("s", ("coeffs.c_solve",)),
    "coeffs.solve_reduce_s": ("s", ("coeffs.c_solve", "reducer.reduce_with_stats")),
    "coeffs.solve_eliminate_s": ("s", ("coeffs.c_solve", "reducer.reduce_with_stats")),
    "qcoeff.pmul_calls": ("count", ("qcoeff.pmul",)),
    "qcoeff.pmul_s": ("s", ("qcoeff.pmul",)),
    "qcoeff.pmul_wrapper_s": ("s", ("qcoeff.pmul",)),
    "repcheck.points": ("count", ("repcheck.matrix_point",)),
    "repcheck.point_s": ("s", ("repcheck.matrix_point",)),
    "repcheck.build_rep_s": ("s", ("repcheck.build_evaluation_rep",)),
    "repcheck.calibrate_s": ("s", ("repcheck.calibrate_rho",)),
    "repcheck.oracle_s": ("s", ("repcheck.rho_calibration_oracle",)),
    "repcheck.spectral_s": ("s", ("repcheck.spectral_polynomial_check",)),
    "cli.self_s": ("s", ("cli.main",)),
}


def layer_metrics(tracer: Tracer) -> dict[str, float | int | None]:
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / 1e9

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in spans if s["name"] == name)

    solve_children = sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] is not None and by_id[s["parent"]]["name"] == "coeffs.c_solve"
    ) / 1e9
    kernel_s = total("reducer.kernel")
    steps = attr_sum("reducer.kernel", "steps")
    pmul_calls, pmul_ns = tracer.counters.get("qcoeff.pmul", (0, 0))
    values = {
        "reducer.kernel_s": kernel_s,
        "reducer.steps": steps,
        "reducer.passes": attr_sum("reducer.kernel", "passes"),
        "reducer.steps_per_s": steps / kernel_s if kernel_s else 0.0,
        "reducer.peak_words": max(
            (s.get("attrs", {}).get("peak_words", 0) for s in spans if s["name"] == "reducer.kernel"),
            default=0,
        ),
        "reducer.pack_s": total("reducer.pack"),
        "reducer.unpack_s": total("reducer.unpack"),
        "reducer.calls": count("reducer.reduce_with_stats"),
        "verify.build_delta_s": total("verify.build_delta"),
        "verify.residual_terms": attr_sum("verify.verify_relation", "residual_terms"),
        "coeffs.recursive_s": total("coeffs.c_recursive"),
        "coeffs.closed_s": total("coeffs.c_closed"),
        "coeffs.polynomial_s": total("coeffs.c_from_polynomial"),
        "coeffs.solve_s": total("coeffs.c_solve"),
        "coeffs.solve_reduce_s": solve_children,
        "coeffs.solve_eliminate_s": sum(
            selfs[s["id"]] for s in spans if s["name"] == "coeffs.c_solve"
        ) / 1e9,
        "qcoeff.pmul_calls": pmul_calls,
        "qcoeff.pmul_s": pmul_ns / 1e9,
        "qcoeff.pmul_wrapper_s": pmul_calls * counter_cost_ns() / 1e9,
        "repcheck.points": count("repcheck.matrix_point"),
        "repcheck.point_s": total("repcheck.matrix_point"),
        "repcheck.build_rep_s": total("repcheck.build_evaluation_rep"),
        "repcheck.calibrate_s": total("repcheck.calibrate_rho"),
        "repcheck.oracle_s": total("repcheck.rho_calibration_oracle"),
        "repcheck.spectral_s": total("repcheck.spectral_polynomial_check"),
        "cli.self_s": sum(selfs[s["id"]] for s in spans if s["name"] == "cli.main") / 1e9,
    }
    missing = set(tracer.missing)
    for metric, (_, needs) in LAYER_METRICS.items():
        if missing.intersection(needs):
            values[metric] = None
    return values
