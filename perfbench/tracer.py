"""Spans and counters around the public calls into each wavekit layer.

The tracer replaces each target function by a wrapper that records a span
(name, parent span, start, end) in memory.  A wrapper is installed in every
namespace that bound the original object: the defining module, each module
that did `from ... import name`, and the CLI's task table `cli._RUNNERS`.
`splu` gets one wrapper per importing module, so LU factorizations are
attributed to the module that asked for them.  Inner counts (eigen path and
power iterations, relaxation periods, outer iterations, Cauchy steps) are read
from return values.  A span's self time is its duration minus the time its
child spans cover; the spans are single-threaded and nest.

The run_config and task.* spans are orchestration: their self time is the
CLI's own code between calls into the layers, plus any helper no target wraps.
It is reported apart from the layers (cli.orchestration_s), and trace.coverage
counts only the layers' self time, so a helper left unwrapped lowers coverage.

install_marks puts entry marks of the paced clock (pace.py) on the same
targets, for the untraced passes that give the end-to-end metrics.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg

ORCHESTRATION = "orchestration"

# (module, attribute, layer).  Attributes with a dot are methods of a class.
TARGETS = (
    ("wavekit.coeffs", "PeriodicField.eval_grid", "coeffs"),
    ("wavekit.coeffs", "validate_assumptions", "coeffs"),
    ("wavekit.coeffs", "nondimensionalize", "coeffs"),
    ("wavekit.coeffs", "system_from_json", "coeffs"),
    ("wavekit.frame", "make_frame", "frame"),
    ("wavekit.frame", "frame_from_json", "frame"),
    ("wavekit.frame", "transform_coefficients", "frame"),
    ("wavekit.pde_core", "build_operator_mu", "pde_core"),
    ("wavekit.pde_core", "apply_operator", "pde_core"),
    ("wavekit.pde_core", "solve_periodic_bvp", "pde_core"),
    ("wavekit.pde_core", "Stepper.__init__", "pde_core"),
    ("wavekit.pde_core", "Stepper.step", "pde_core"),
    ("wavekit.pde_core", "Stepper.step_implicit_quadratic", "pde_core"),
    ("wavekit.pde_core", "GridField.to_csv", "cli"),
    ("wavekit.eigen", "principal_eigenvalue", "eigen"),
    ("wavekit.eigen", "EigenEvaluator.__init__", "eigen"),
    ("wavekit.eigen", "EigenEvaluator.pair", "eigen"),
    ("wavekit.eigen", "lambda_mu_curve", "eigen"),
    ("wavekit.dispersion", "static_frame", "dispersion"),
    ("wavekit.dispersion", "persistence_check", "dispersion"),
    ("wavekit.dispersion", "minimal_speed", "dispersion"),
    ("wavekit.dispersion", "speed_roots", "dispersion"),
    ("wavekit.waves", "cylinder_grid", "waves"),
    ("wavekit.waves", "_cell_grid_for", "waves"),
    ("wavekit.waves", "build_envelopes_supercritical", "waves"),
    ("wavekit.waves", "build_envelopes_critical", "waves"),
    ("wavekit.waves", "fixed_point_truncated", "waves"),
    ("wavekit.waves", "critical_fixed_point", "waves"),
    ("wavekit.waves", "extend_to_entire", "waves"),
    ("wavekit.waves", "verify_wave", "waves"),
    ("wavekit.cauchy", "logistic_envelope", "cauchy"),
    ("wavekit.cauchy", "bump_initial", "cauchy"),
    ("wavekit.cauchy", "front_initial", "cauchy"),
    ("wavekit.cauchy", "simulate", "cauchy"),
    ("wavekit.cauchy", "SimulationRun.front_positions", "cauchy"),
    ("wavekit.cauchy", "measure_spreading_speed", "cauchy"),
    ("wavekit.svgplot", "line_plot", "svgplot"),
    ("wavekit.svgplot", "text_panel", "svgplot"),
    ("wavekit.cli", "load_config", "cli"),
    ("wavekit.cli", "_atomic_write", "cli"),
    ("wavekit.cli", "emit_report", "cli"),
    ("wavekit.cli", "run_config", ORCHESTRATION),
)

LAYERS = ("coeffs", "frame", "pde_core", "eigen", "dispersion", "waves", "cauchy", "cli",
          "svgplot")
SPLU_MODULES = ("wavekit.pde_core", "wavekit.waves", "wavekit.cauchy")


# calls too short and too many to mark for the paced clock (pace.Pacer)
UNMARKED = ("Stepper.step", "Stepper.step_implicit_quadratic", "apply_operator",
            "PeriodicField.eval_grid")


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace_everywhere(original, wrapper, restore):
    for modname, mod in list(sys.modules.items()):
        if modname != "wavekit" and not modname.startswith("wavekit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                restore.append((mod, attr, original))


def install_target(module: str, attr: str, wrapper_for, restore: list) -> None:
    """Replace module.attr by wrapper_for(original) wherever it is bound."""
    owner, name = _resolve(module, attr)
    original = vars(owner)[name]
    wrapper = wrapper_for(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        restore.append((owner, name, original))
    else:
        _replace_everywhere(original, wrapper, restore)


def install_splu(wrapper_for, restore: list) -> None:
    """Give each module in SPLU_MODULES its own wrapper_for(layer, splu)."""
    for module in SPLU_MODULES:
        mod = sys.modules[module]
        if getattr(mod, "splu", None) is scipy.sparse.linalg.splu:
            setattr(mod, "splu", wrapper_for(module.split(".")[1], mod.splu))
            restore.append((mod, "splu", scipy.sparse.linalg.splu))


def uninstall(restore: list) -> None:
    for owner, name, original in reversed(restore):
        if isinstance(owner, dict):
            owner[name] = original
        else:
            setattr(owner, name, original)
    restore.clear()


def install_marks(pacer) -> list:
    """Mark the entry of every target but UNMARKED, and of splu, on pacer's clock.

    Returns the list to pass to uninstall().
    """
    restore = []
    for module, attr, _ in TARGETS:
        if attr not in UNMARKED:
            install_target(module, attr, pacer.wrap, restore)
    install_splu(lambda layer, fn: pacer.wrap(fn), restore)
    return restore


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.spans = []          # [name, parent, t0, t1]
        self.layer_of = {}       # span name -> layer
        self.counts = Counter()
        self._stack = []
        self._seen_keys = set()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, layer, fn, on_result=None):
        self.layer_of[name] = layer
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        return wrapper

    def start_job(self):
        """Eigenpairs count as duplicates only within one job (one CLI run)."""
        self._seen_keys.clear()

    def _on_eigen(self, args, kwargs, pair):
        op = args[0]
        frame = op.fsys.frame
        key = (tuple(frame.e_floats()), frame.c_float(), op.grid, op.mu,
               kwargs.get("normalization", args[2] if len(args) > 2 else "max-one"))
        if key in self._seen_keys:
            self.counts["eigen.duplicate_solves"] += 1
        self._seen_keys.add(key)
        if pair.info["path"] == "ode-monodromy":
            self.counts["eigen.ode_solves"] += 1
        else:
            self.counts["eigen.power_iterations"] += pair.info["iterations"]

    def _on_bvp(self, args, kwargs, out):
        info = out[1]
        self.counts["pde_core.relax_periods"] += info["periods"]
        self.counts["pde_core.steady_solves"] += info["mode"] == "steady"

    def _on_profile(self, args, kwargs, profile):
        self.counts["waves.outer_iterations"] += profile.iterations

    def _on_simulate(self, args, kwargs, run):
        self.counts["cauchy.steps"] += int(round(run.times[-1] / run.dt))

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "principal_eigenvalue": self._on_eigen,
            "solve_periodic_bvp": self._on_bvp,
            "fixed_point_truncated": self._on_profile,
            "critical_fixed_point": self._on_profile,
            "simulate": self._on_simulate,
        }
        for module, attr, layer in TARGETS:
            install_target(module, attr,
                           lambda fn, a=attr, l=layer: self._wrap(a, l, fn, hooks.get(a)),
                           self._restore)
        cli = sys.modules["wavekit.cli"]
        for task, runner in list(cli._RUNNERS.items()):
            cli._RUNNERS[task] = self._wrap(f"task.{task}", ORCHESTRATION, runner)
            self._restore.append((cli._RUNNERS, task, runner))
        install_splu(lambda layer, fn: self._wrap(f"splu@{layer}", layer, fn), self._restore)

    def uninstall(self):
        uninstall(self._restore)

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        self_t = [rec[3] - rec[2] for rec in self.spans]
        for rec in self.spans:
            if rec[1] >= 0:
                self_t[rec[1]] -= rec[3] - rec[2]
        return self_t

    def _solves_per_search(self, ancestor_name):
        """Eigen solves nested in spans named ancestor_name, per such span that made any.

        A search that finds every eigenpair in the evaluator cache (the CLI's
        second speed_roots call of a job) is not counted as a search.
        """
        spans = self.spans
        per_search = Counter()
        for rec in spans:
            if rec[0] != "principal_eigenvalue":
                continue
            p = rec[1]
            while p >= 0 and spans[p][0] != ancestor_name:
                p = spans[p][1]
            if p >= 0:
                per_search[p] += 1
        return sum(per_search.values()) / len(per_search) if per_search else 0.0

    def summary(self) -> dict:
        """Per-name counts and self/inclusive times, per-layer self times, counters."""
        self_t = self.self_times()
        calls = Counter()
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS + (ORCHESTRATION,)}
        for rec, st in zip(self.spans, self_t):
            name = rec[0]
            calls[name] += 1
            self_s[name] += st
            incl_s[name] += rec[3] - rec[2]
            layer_self[self.layer_of[name]] += st
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "layer_self_s": layer_self,
            "counts": dict(self.counts),
            "solves_per_cstar": self._solves_per_search("minimal_speed"),
            "solves_per_roots": self._solves_per_search("speed_roots"),
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        """Write every span (id, parent, name, layer, start, end, self) as CSV."""
        self_t = self.self_times()
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "layer", "start_s", "end_s", "self_s"])
            for sid, (rec, st) in enumerate(zip(self.spans, self_t)):
                out.writerow([sid, rec[1], rec[0], self.layer_of[rec[0]],
                              repr(rec[2]), repr(rec[3]), repr(st)])


# (name, unit, better) of every per-layer metric, in the order reported
PER_LAYER = (
    ("eigen.solves", "count", "lower"),
    ("eigen.solve_s", "s", "lower"),
    ("eigen.ode_solves", "count", "lower"),
    ("eigen.power_iterations", "count", "lower"),
    ("eigen.pair_requests", "count", "lower"),
    ("eigen.duplicate_solves", "count", "lower"),
    ("dispersion.minimal_speed_s", "s", "lower"),
    ("dispersion.evals_per_cstar", "count", "lower"),
    ("dispersion.speed_roots_s", "s", "lower"),
    ("dispersion.evals_per_roots", "count", "lower"),
    ("dispersion.persistence_calls", "count", "lower"),
    ("pde_core.build_operator_s", "s", "lower"),
    ("pde_core.build_operator_calls", "count", "lower"),
    ("pde_core.stepper_init_s", "s", "lower"),
    ("pde_core.stepper_inits", "count", "lower"),
    ("pde_core.lu_factorizations", "count", "lower"),
    ("pde_core.steps", "count", "lower"),
    ("pde_core.step_s", "s", "lower"),
    ("pde_core.bvp_s", "s", "lower"),
    ("pde_core.bvp_calls", "count", "lower"),
    ("pde_core.relax_periods", "count", "lower"),
    ("pde_core.steady_solves", "count", "lower"),
    ("pde_core.apply_operator_s", "s", "lower"),
    ("waves.outer_iterations", "count", "lower"),
    ("waves.fixed_point_s", "s", "lower"),
    ("waves.envelopes_s", "s", "lower"),
    ("waves.verify_s", "s", "lower"),
    ("cauchy.simulate_s", "s", "lower"),
    ("cauchy.steps", "count", "lower"),
    ("cauchy.steps_per_s", "1/s", "higher"),
    ("cauchy.lu_factorizations", "count", "lower"),
    ("cauchy.measure_s", "s", "lower"),
    ("coeffs.eval_grid_s", "s", "lower"),
    ("coeffs.eval_grid_calls", "count", "lower"),
    ("coeffs.validate_s", "s", "lower"),
    ("frame.transform_s", "s", "lower"),
    ("frame.transform_calls", "count", "lower"),
    ("cli.csv_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
    ("cli.report_s", "s", "lower"),
    ("svgplot.plot_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("cli.orchestration_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)


def per_layer_metrics(s: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """Values of every PER_LAYER metric from a Tracer.summary() and two run times."""
    def calls(*names):
        return sum(s["calls"].get(n, 0) for n in names)

    def self_s(*names):
        return sum(s["self_s"].get(n, 0.0) for n in names)

    def count(name):
        return s["counts"].get(name, 0)

    steps = count("cauchy.steps")
    sim_s = s["incl_s"].get("simulate", 0.0)
    values = {
        "eigen.solves": calls("principal_eigenvalue"),
        "eigen.solve_s": self_s("principal_eigenvalue"),
        "eigen.ode_solves": count("eigen.ode_solves"),
        "eigen.power_iterations": count("eigen.power_iterations"),
        "eigen.pair_requests": calls("EigenEvaluator.pair"),
        "eigen.duplicate_solves": count("eigen.duplicate_solves"),
        "dispersion.minimal_speed_s": self_s("minimal_speed"),
        "dispersion.evals_per_cstar": s["solves_per_cstar"],
        "dispersion.speed_roots_s": self_s("speed_roots"),
        "dispersion.evals_per_roots": s["solves_per_roots"],
        "dispersion.persistence_calls": calls("persistence_check"),
        "pde_core.build_operator_s": self_s("build_operator_mu"),
        "pde_core.build_operator_calls": calls("build_operator_mu"),
        "pde_core.stepper_init_s": self_s("Stepper.__init__"),
        "pde_core.stepper_inits": calls("Stepper.__init__"),
        "pde_core.lu_factorizations": calls("splu@pde_core", "splu@waves"),
        "pde_core.steps": calls("Stepper.step", "Stepper.step_implicit_quadratic"),
        "pde_core.step_s": self_s("Stepper.step", "Stepper.step_implicit_quadratic"),
        "pde_core.bvp_s": self_s("solve_periodic_bvp"),
        "pde_core.bvp_calls": calls("solve_periodic_bvp"),
        "pde_core.relax_periods": count("pde_core.relax_periods"),
        "pde_core.steady_solves": count("pde_core.steady_solves"),
        "pde_core.apply_operator_s": self_s("apply_operator"),
        "waves.outer_iterations": count("waves.outer_iterations"),
        "waves.fixed_point_s": self_s("fixed_point_truncated", "critical_fixed_point"),
        "waves.envelopes_s": self_s("build_envelopes_supercritical", "build_envelopes_critical"),
        "waves.verify_s": self_s("verify_wave"),
        "cauchy.simulate_s": self_s("simulate"),
        "cauchy.steps": steps,
        "cauchy.steps_per_s": steps / sim_s if sim_s else 0.0,
        "cauchy.lu_factorizations": calls("splu@cauchy"),
        "cauchy.measure_s": self_s("measure_spreading_speed"),
        "coeffs.eval_grid_s": self_s("PeriodicField.eval_grid"),
        "coeffs.eval_grid_calls": calls("PeriodicField.eval_grid"),
        "coeffs.validate_s": self_s("validate_assumptions"),
        "frame.transform_s": self_s("transform_coefficients"),
        "frame.transform_calls": calls("transform_coefficients"),
        "cli.csv_s": self_s("GridField.to_csv"),
        "cli.artifact_bytes": s["artifact_bytes"],
        "cli.report_s": self_s("emit_report"),
        "svgplot.plot_s": self_s("line_plot", "text_panel"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = s["layer_self_s"][layer]
    values["cli.orchestration_s"] = s["layer_self_s"][ORCHESTRATION]
    values["trace.run_s"] = traced_run_s
    values["trace.untraced_run_s"] = untraced_run_s
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    values["trace.coverage"] = sum(s["layer_self_s"][l] for l in LAYERS) / traced_run_s
    values["trace.spans"] = s["spans"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
