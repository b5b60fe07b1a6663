"""Outside-in layer tracing for the benchmark.

The tracer replaces public functions and methods of the ``convecopt``
modules with thin wrappers that record one span per call: name, start, end,
parent span, thread and phase.  Nothing in ``convecopt`` is edited; a name
imported with ``from .x import y`` is replaced in every module namespace
that holds it, because that is where the caller looks it up.  ``uninstall``
puts the original objects back, so untraced repetitions in the same process
run the unmodified code.

Spans are kept in memory and turned into per-layer metrics (call counts and
self time) by :func:`layer_metrics`.  Self time is a span's duration minus
the part of its interval covered by its child spans.  Each thread keeps its
own span stack; a span opened on a worker thread with an empty stack takes
the innermost open span of the main thread as its parent, which is the call
that is waiting on the worker (the stability sweep's thread pool).

This module imports only the standard library, so importing it does not
move the start of the set-up timing.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
import weakref

# (module, attribute, span name).  An attribute "Class.method" wraps a
# method on the class.  Module functions are replaced in every convecopt
# namespace that holds the same object.
TARGETS = (
    ("grid", "Grid.poisson_neumann", "grid.poisson"),
    ("grid", "Grid.helmholtz_solve_vec", "grid.helmholtz_vec"),
    ("grid", "Grid.helmholtz_solve_scalar", "grid.helmholtz_scalar"),
    ("grid", "Grid.leray_project", "grid.projection"),
    ("grid", "Grid.advect_vector", "grid.advect"),
    ("grid", "Grid.advect_scalar", "grid.advect"),
    ("grid", "Grid.advect_vector_t_field", "grid.advect_t"),
    ("grid", "Grid.advect_vector_t_vel", "grid.advect_t"),
    ("grid", "Grid.advect_scalar_t_field", "grid.advect_t"),
    ("grid", "Grid.advect_scalar_t_vel", "grid.advect_t"),
    ("boussinesq", "solve_state", "boussinesq.forward_sweep"),
    ("boussinesq", "step", "boussinesq.step"),
    ("sensitivity", "solve_adjoint", "sensitivity.adjoint"),
    ("sensitivity", "solve_linearized", "sensitivity.tangent"),
    ("sensitivity", "second_rhs", "sensitivity.second_rhs"),
    ("objective", "Problem.state", "objective.state"),
    ("objective", "Problem.adjoint", "objective.adjoint"),
    ("objective", "Problem.eval_J", "objective.eval_J"),
    ("objective", "Problem.grad_J", "objective.grad_J"),
    ("objective", "Problem.tangent", "objective.tangent"),
    ("objective", "Problem.second_bilinear", "objective.second_bilinear"),
    ("optimizer", "projected_gradient", "optimizer.projected_gradient"),
    ("optimizer", "pointwise_sign_check", "optimizer.sign_check"),
    ("stability_lab", "stability_sweep", "stability_lab.sweep"),
    ("stability_lab", "solve_perturbed", "stability_lab.point"),
    ("stability_lab", "make_perturbation", "stability_lab.perturbation"),
    ("stability_lab", "growth_probe", "stability_lab.growth_probe"),
    ("stability_lab", "tracking_margin", "stability_lab.tracking_margin"),
    ("mms", "build_case", "mms.build_case"),
    ("mms", "run_level", "mms.run_level"),
    ("config", "build_problem", "config.build_problem"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "Run.write_csv", "cli.artifact"),
    ("cli", "Run.write_json", "cli.artifact"),
    ("cli", "Run.finish", "cli.manifest"),
)

_SOLVES = ("grid.poisson", "grid.helmholtz_vec", "grid.helmholtz_scalar")
SWEEPS = ("boussinesq.forward_sweep", "sensitivity.adjoint", "sensitivity.tangent")


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans = []        # (id, parent, name, t0, t1, phase, note)
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._saved = []       # (owner, attribute, original)
        self._seen = weakref.WeakKeyDictionary()   # grid -> solve keys seen
        self._seen_lock = threading.Lock()

    # -- span recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and threading.current_thread() is not threading.main_thread():
            parent = self._main_stack[-1]
        else:
            parent = None
        note = self._first_solve(name, args) if name in _SOLVES else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.phase,
                           _note_result(name, out, note)))
        return out

    def _first_solve(self, name, args):
        """True on the first solve of a kind (and coefficient) on a grid.

        That is the call in which the grid factorizes its operator today.
        """
        key = (name, None if name == "grid.poisson" else float(args[1]))
        with self._seen_lock:
            seen = self._seen.setdefault(args[0], set())
            if key in seen:
                return False
            seen.add(key)
            return True

    # -- installing the wrappers --------------------------------------------

    def install(self):
        """Wrap every target; safe to call again after uninstall."""
        # Import every module first: one imported while the wrappers are in
        # place would keep a wrapper after uninstall.
        import convecopt.cli, convecopt.mms  # noqa: E401,F401
        mods = [m for n, m in sorted(sys.modules.items())
                if n.startswith("convecopt.") and m is not None]
        for modname, attr, span in TARGETS:
            mod = sys.modules["convecopt." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, span)
                continue
            original = getattr(mod, attr)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, span)

    def _patch(self, owner, attr, span):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(span, original, args, kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        """Spans recorded so far, removed from the tracer."""
        out, self.spans = self.spans, []
        return out


def _note_result(name, out, note):
    """Small facts about a call's result that the layer metrics need."""
    if name == "optimizer.projected_gradient":
        return (out.iterations, int(sum(out.backtrack_history)))
    if name in ("cli.artifact", "cli.manifest"):
        return os.path.getsize(out)
    return note


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Map span id -> self time (duration minus the union of child intervals)."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s[0]] = (t1 - t0) - covered
    return out


def layer_counts(spans):
    """Deterministic per-layer counts of one traced set of spans."""
    n = {}
    for s in spans:
        n[s[2]] = n.get(s[2], 0) + 1
    name_of = {s[0]: s[2] for s in spans}

    def count_under(child, parent):
        return sum(1 for s in spans if s[2] == child and name_of.get(s[1]) == parent)

    # a cache lookup misses when it starts a sweep of its own
    state_miss = count_under("boussinesq.forward_sweep", "objective.state")
    adj_miss = count_under("sensitivity.adjoint", "objective.adjoint")
    opt = [s[6] for s in spans if s[2] == "optimizer.projected_gradient"]
    iters = sum(o[0] for o in opt)
    backtracks = sum(o[1] for o in opt)
    # the first evaluation of each run, at its start point, is no trial
    trials = count_under("objective.eval_J", "optimizer.projected_gradient") - len(opt)
    state_calls = n.get("objective.state", 0)
    adj_calls = n.get("objective.adjoint", 0)
    return {
        "grid.poisson.calls": n.get("grid.poisson", 0),
        "grid.helmholtz_vec.calls": n.get("grid.helmholtz_vec", 0),
        "grid.helmholtz_scalar.calls": n.get("grid.helmholtz_scalar", 0),
        "grid.projection.calls": n.get("grid.projection", 0),
        "grid.advect.calls": n.get("grid.advect", 0),
        "grid.advect_t.calls": n.get("grid.advect_t", 0),
        "boussinesq.forward_sweeps": n.get("boussinesq.forward_sweep", 0),
        "boussinesq.steps": n.get("boussinesq.step", 0),
        "sensitivity.adjoint_sweeps": n.get("sensitivity.adjoint", 0),
        "sensitivity.tangent_sweeps": n.get("sensitivity.tangent", 0),
        "objective.state.lookups": state_calls,
        "objective.state.hit_ratio": (state_calls - state_miss) / state_calls if state_calls else 0.0,
        "objective.adjoint.lookups": adj_calls,
        "objective.adjoint.hit_ratio": (adj_calls - adj_miss) / adj_calls if adj_calls else 0.0,
        "optimizer.runs": len(opt),
        "optimizer.iterations": iters,
        "optimizer.backtracks": backtracks,
        "optimizer.trials": trials,
        "optimizer.trial_accept_ratio": iters / trials if trials else 0.0,
        "stability_lab.points": n.get("stability_lab.point", 0),
        "cli.artifact_bytes": sum(s[6] for s in spans if s[2] in ("cli.artifact", "cli.manifest")),
    }


def layer_times(spans):
    """Per-layer self times (seconds) of one traced set of spans."""
    st = self_times(spans)
    acc = {}

    def add(key, v):
        acc[key] = acc.get(key, 0.0) + v

    for s in spans:
        name, self_s = s[2], st[s[0]]
        layer = name.split(".")[0]
        if name in ("grid.poisson", "grid.helmholtz_vec", "grid.helmholtz_scalar",
                    "grid.projection", "grid.advect", "grid.advect_t"):
            add(name + ".self_s", self_s)
        if s[6] is True:        # first solve of its kind on a grid: factorization
            add("grid.factor_s", s[4] - s[3])
        if name == "boussinesq.step":
            add("boussinesq.step.self_s", self_s)
            add("_step_total", s[4] - s[3])
        if name in ("sensitivity.adjoint", "sensitivity.tangent", "sensitivity.second_rhs"):
            add(name + ".self_s", self_s)
        if layer in ("objective", "optimizer", "stability_lab"):
            add(layer + ".self_s", self_s)
        if name == "mms.build_case":
            add("mms.build_case_s", s[4] - s[3])
        if name == "mms.run_level":
            add("mms.source_eval_s", self_s)
        if name == "config.build_problem":
            add("config.build_problem_s", s[4] - s[3])
        if name in ("cli.artifact", "cli.manifest"):
            add("cli.artifacts_s", s[4] - s[3])
    steps = sum(1 for s in spans if s[2] == "boussinesq.step")
    total = acc.pop("_step_total", 0.0)
    acc["boussinesq.ms_per_step"] = 1e3 * total / steps if steps else 0.0
    return acc
