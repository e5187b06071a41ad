"""Span tracing of repdyn's layers from outside the package.

The tracer replaces public functions with timing wrappers: every module-level
binding of each name inside ``repdyn`` (``flows`` imports ``exact_value`` by
name, ``experiments`` and ``cli`` import ``emit_svg`` by name), the entries of
module-level dicts that hold them (``experiments.EXPERIMENTS``), and the
numpy/scipy kernels that ``spectral`` and ``flows`` reach through module
attributes. ``uninstall`` puts every original back.

A span is (name, parent, item, outer_start, start, end, outer_end, attrs).
[start, end] times the wrapped call alone; [outer_start, outer_end] also
covers the wrapper's own bookkeeping (input digests, step replay), so that
the bookkeeping is charged to no layer: a parent's self time is its duration
minus the part of it that its children's outer intervals cover.
"""

from __future__ import annotations

import hashlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

RUNNERS = ("run_two_state", "run_four_rooms_features", "run_chain_transfer",
           "run_limit_checks", "run_bayes_optimality", "run_multi_task")
SPECTRAL = ("eigen_decompose", "ebf", "rsbf", "resolvent", "orthonormalize",
            "grassmann_distance", "vector_subspace_angle")
MDP = ("policy_iteration", "induce", "exact_value")
VALUE_FLOWS = ("td_value_flow", "mc_value_flow", "nstep_value_flow", "td_lambda_value_flow")
RK4_FLOWS = ("flows.ensemble_flow.frozen", "flows.ensemble_flow.trained",
             "flows.multi_task_flow", "flows.joint_flow")
LINALG = {"expm": (scipy.linalg, "expm"), "eig": (np.linalg, "eig"),
          "eigh": (np.linalg, "eigh"), "svd": (np.linalg, "svd"),
          "solve": (np.linalg, "solve")}


def rk4_step_count(times, step: float) -> int:
    """Steps the fixed-step RK4 loop in ``repdyn.flows`` takes over ``times``.

    Replays the loop's own float arithmetic (start at 0, shorten the last
    step before each sample time, stop within 1e-12 of it) without
    evaluating any right-hand side.
    """
    t, steps = 0.0, 0
    for target in np.asarray(times, dtype=float):
        while t < target - 1e-12:
            t += min(step, target - t)
            steps += 1
    return steps


@dataclass
class Span:
    name: str
    parent: int
    item: str
    outer_start: float
    start: float = 0.0
    end: float = 0.0
    outer_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's outer intervals."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.outer_start):
            lo = max(child.outer_start, reach)
            hi = min(child.outer_end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans while ``item`` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: str | None = None
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            outer_start = time.perf_counter()
            span = Span(name if isinstance(name, str) else name(fn, args, kwargs),
                        tracer._stack[-1] if tracer._stack else -1, tracer.item, outer_start)
            if before is not None:
                span.attrs.update(before(fn, args, kwargs))
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.outer_end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                span.attrs.update(after(result, args))
            span.outer_end = time.perf_counter()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Rebind ``fn`` to ``wrapper`` in every repdyn module namespace and module-level dict."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repdyn" or mod_name.startswith("repdyn.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module.__dict__, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            self._set(value, dkey, wrapper)

    def _set(self, namespace: dict, key, value) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def install(self) -> None:
        from repdyn import cli, experiments, flows, mdp, report, spectral, svg

        def wrap_all(module, attr, name, before=None, after=None):
            fn = getattr(module, attr)
            self._patch_everywhere(fn, self._wrap(fn, name, before, after))

        for attr in RUNNERS:
            wrap_all(experiments, attr, f"experiments.{attr}")
        for attr in SPECTRAL:
            wrap_all(spectral, attr, f"spectral.{attr}",
                     before=_eigen_input if attr == "eigen_decompose" else None)
        for attr in MDP + ("build_four_rooms",):
            wrap_all(mdp, attr, f"mdp.{attr}")
        for attr in VALUE_FLOWS:
            wrap_all(flows, attr, "flows.value_flow")
        wrap_all(flows, "ensemble_flow", _ensemble_name, before=_rk4_steps)
        wrap_all(flows, "multi_task_flow", "flows.multi_task_flow", before=_rk4_steps)
        wrap_all(flows, "joint_flow", "flows.joint_flow", before=_rk4_steps)
        wrap_all(flows, "matrix_exponential", "flows.matrix_exponential", before=_expm_input)
        wrap_all(flows, "linear_limit_flow", "flows.linear_limit_flow")
        wrap_all(flows, "trajectory_to_csv", "flows.trajectory_to_csv", after=_text_bytes)
        wrap_all(svg, "emit_svg", "svg.emit_svg", after=_text_bytes)
        wrap_all(cli, "main", "cli.main")
        self._set(_ClassNamespace(report.ReportBundle), "save",
                  self._wrap(report.ReportBundle.save, "report.save", after=_saved_files))
        for kernel, (module, attr) in LINALG.items():
            self._set(_ClassNamespace(module), attr,
                      self._wrap(getattr(module, attr), f"linalg.{kernel}"))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call, then forget them."""
        spans, self.spans = self.spans, []
        selfs = self_times(spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        attr_sum = defaultdict(float)
        digests = defaultdict(set)
        for span, own in zip(spans, selfs):
            calls[span.name] += 1
            self_s[span.name] += own
            if not _inside_same(spans, span):
                total_s[span.name] += span.duration
            for key, value in span.attrs.items():
                if key == "input":
                    digests[span.name].add(value)
                else:
                    attr_sum[(span.name, key)] += value

        def ratio(name):
            return len(digests[name]) / calls[name] if calls[name] else 0.0

        steps = sum(attr_sum[(name, "rk4_steps")] for name in RK4_FLOWS)
        rk4_time = sum(total_s[name] for name in RK4_FLOWS)
        m = {
            "flows.ensemble_flow.frozen.total_s": total_s["flows.ensemble_flow.frozen"],
            "flows.ensemble_flow.trained.total_s": total_s["flows.ensemble_flow.trained"],
            "flows.multi_task_flow.total_s": total_s["flows.multi_task_flow"],
            "flows.rk4_steps": steps,
            "flows.rhs_evals": 4 * steps,
            "flows.rk4_steps_per_s": steps / rk4_time if rk4_time else 0.0,
            "flows.matrix_exponential.calls": calls["flows.matrix_exponential"],
            "flows.matrix_exponential.self_s": self_s["flows.matrix_exponential"],
            "flows.matrix_exponential.distinct_ratio": ratio("flows.matrix_exponential"),
            "flows.value_flow.total_s": total_s["flows.value_flow"],
            "flows.linear_limit_flow.total_s": total_s["flows.linear_limit_flow"],
            "flows.trajectory_to_csv.total_s": total_s["flows.trajectory_to_csv"],
            "flows.trajectory_to_csv.bytes": attr_sum[("flows.trajectory_to_csv", "bytes")],
            "cli.main.self_s": self_s["cli.main"],
        }
        for name in SPECTRAL:
            m[f"spectral.{name}.calls"] = calls[f"spectral.{name}"]
            m[f"spectral.{name}.self_s"] = self_s[f"spectral.{name}"]
        m["spectral.eigen_decompose.distinct_ratio"] = ratio("spectral.eigen_decompose")
        for name in MDP:
            m[f"mdp.{name}.calls"] = calls[f"mdp.{name}"]
            m[f"mdp.{name}.self_s"] = self_s[f"mdp.{name}"]
        m["mdp.build_four_rooms.self_s"] = self_s["mdp.build_four_rooms"]
        m["svg.emit_svg.calls"] = calls["svg.emit_svg"]
        m["svg.emit_svg.self_s"] = self_s["svg.emit_svg"]
        m["svg.emit_svg.bytes"] = attr_sum[("svg.emit_svg", "bytes")]
        m["report.save.calls"] = calls["report.save"]
        m["report.save.self_s"] = self_s["report.save"]
        m["report.save.files"] = attr_sum[("report.save", "files")]
        m["report.save.bytes"] = attr_sum[("report.save", "bytes")]
        for name in RUNNERS:
            m[f"experiments.{name}.self_s"] = self_s[f"experiments.{name}"]
        for kernel in LINALG:
            m[f"linalg.{kernel}.calls"] = calls[f"linalg.{kernel}"]
            m[f"linalg.{kernel}.self_s"] = self_s[f"linalg.{kernel}"]
        return m


class _ClassNamespace:
    """Item access onto an object's attributes, so classes and modules patch like dicts."""

    def __init__(self, owner):
        self.owner = owner

    def __getitem__(self, key):
        return getattr(self.owner, key)

    def __setitem__(self, key, value):
        setattr(self.owner, key, value)


def _inside_same(spans: list, span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


def _ensemble_name(fn, args, kwargs) -> str:
    beta = _bound(fn, args, kwargs)["beta"]
    return "flows.ensemble_flow.frozen" if beta == 0.0 else "flows.ensemble_flow.trained"


def _rk4_steps(fn, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    return {"rk4_steps": rk4_step_count(a["times"], a["step"])}


def _expm_input(fn, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    return {"input": _digest(a["A"], a["t"])}


def _eigen_input(fn, args, kwargs) -> dict:
    a = _bound(fn, args, kwargs)
    return {"input": _digest(a["P"], a["gap_tol"])}


def _text_bytes(result, args) -> dict:
    return {"bytes": len(result.encode())}


def _saved_files(result, args) -> dict:
    import os

    bundle, out_dir = args[0], os.fspath(args[1])
    paths = ([os.path.join(out_dir, "config.json"), os.path.join(out_dir, "checks.json")]
             + [os.path.join(out_dir, "tables", f"{n}.csv") for n in bundle.tables]
             + [os.path.join(out_dir, "figures", f"{n}.svg") for n in bundle.figures])
    return {"files": len(paths), "bytes": sum(os.path.getsize(p) for p in paths)}


def median_metrics(per_pass: list) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
