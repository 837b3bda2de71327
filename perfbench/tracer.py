"""Span tracing around the public entry points of the gradsing modules.

The tracer lives entirely in the benchmark: it replaces module functions
and a few methods with wrappers that record one span per call (name,
start, end, parent span, run id) into flat in-memory arrays, plus a few
counters that are cheapest to take at the same boundary (points per
Bessel call, taper activity of the cutoff, steps of a finished solve).
Spans are written out once, at the end, and reduced to per-layer metrics.

A layer's self time is a span's duration minus the time covered by its
direct child spans; a layer's inclusive time counts only its outermost
spans, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public entry points per module (modules named as in src/gradsing/).
# Private names appear only where no public boundary exists: the scipy
# banded solve as bound in the solver module, and artifact persistence.
FUNCTIONS = {
    "specfn": ("bessel_j", "bessel_j_prime", "bessel_j_second", "first_zeros",
               "nu_of", "alpha_of"),
    "analytic": ("make_params", "max_admissible_R", "ensure_admissible",
                 "u_star", "u_star_r", "u_star_rr", "v_mode", "v_mode_r",
                 "v_mode_t", "v_mode_rr", "psi", "psi_prime",
                 "residual_stationary", "stationary_residual_scale",
                 "residual_linearized", "subsolution_defect",
                 "mode_lower_bound_c1", "probe_lattice"),
    "initdata": ("make_initial_datum", "validate_initial_datum",
                 "choose_amplitude_C", "c_star_eps", "make_u0eps",
                 "make_epsilon_problem"),
    "solver": ("discretize_operator", "step", "solve_annulus",
               "continuation", "compact_difference", "solve_banded"),
    "verify": ("fit_singularity", "fit_decay", "weak_form_residual",
               "inner_mass_integral", "check_sandwich", "check_monotone",
               "check_gradient_box", "check_cutoff_inactive",
               "check_boundary_bands", "check_weighted_bernstein",
               "check_pointwise_gradient", "check_pointwise_stability",
               "check_singularity_shape", "check_shape_functional",
               "check_decay_envelope", "check_decay_rate",
               "check_weak_identity", "check_inner_mass",
               "check_uniqueness_surrogate", "check_continuation_cauchy"),
    "pipeline": ("build_model", "analytic_checks", "run_pipeline",
                 "emit_plotdata", "_persist"),
}
METHODS = {
    "initdata": (("EpsilonProblem", "inner_bc"), ("CutoffCubic", "apply"),
                 ("CutoffCubic", "derivative")),
    "solver": (("RadialGrid", "gradient"), ("LaplacianOperator", "apply")),
}
BESSEL = ("specfn.bessel_j", "specfn.bessel_j_prime", "specfn.bessel_j_second")
CUTOFF = ("initdata.CutoffCubic.apply", "initdata.CutoffCubic.derivative")


def _bessel_points(tracer, args, out):
    tracer.counters["specfn.points"] += np.size(args[1])


def _cutoff_taper(tracer, args, out):
    cutoff, s = args[0], args[1]
    if np.size(s) and float(np.max(np.abs(s))) > cutoff.c_star:
        tracer.counters["initdata.cutoff.taper_calls"] += 1


def _solve_steps(tracer, args, out):
    tracer.counters["solver.steps"] += out.times.size - 1
    ratio = out.max_abs_gradient / out.problem.c_star_eps
    tracer.counters["solver.max_grad_ratio"] = max(
        tracer.counters["solver.max_grad_ratio"], ratio)


PROBES = {name: _bessel_points for name in BESSEL}
PROBES.update({name: _cutoff_taper for name in CUTOFF})
PROBES["solver.solve_annulus"] = _solve_steps


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.runs = array("q")
        self.run_id = 0
        self.counters = {"specfn.points": 0, "initdata.cutoff.taper_calls": 0,
                         "solver.steps": 0, "solver.max_grad_ratio": 0.0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, runs = self.parents, self.runs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, out)
            return out

        return traced

    def install(self) -> "Tracer":
        """Wrap every entry point, including names other gradsing modules
        imported with ``from ... import``."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "gradsing" or k.startswith("gradsing.")}
        for short, names in FUNCTIONS.items():
            mod = mods[f"gradsing.{short}"]
            for attr in names:
                original = getattr(mod, attr)
                wrapped = self._wrap(f"{short}.{attr}", original)
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is original:
                            self._patch(other, key, wrapped)
        for short, pairs in METHODS.items():
            mod = mods[f"gradsing.{short}"]
            for cls_name, attr in pairs:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr,
                            self._wrap(f"{short}.{cls_name}.{attr}", original))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_ids, dtype=np.int64).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy(),
                np.frombuffer(self.parents, dtype=np.int64).copy(),
                np.frombuffer(self.runs, dtype=np.int64).copy())

    def write(self, path) -> None:
        name_ids, starts, ends, parents, runs = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name_ids,
                            start=starts, end=ends, parent=parents, run=runs)

    def layer_metrics(self, iterations: int) -> dict:
        """Per-layer metrics per workload iteration (totals / iterations)."""
        name_ids, starts, ends, parents, _ = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        module = np.array([n.split(".")[0] for n in self.names] or [""])
        span_module = module[name_ids] if dur.size else module[:0]
        by_name = {n: name_ids == i for i, n in enumerate(self.names)}

        def calls(*names):
            return sum(int(np.count_nonzero(by_name[n])) for n in names)

        def self_s(mask):
            return float(np.sum(self_time[mask]))

        def inclusive(mask):
            """Summed duration of the spans in mask not nested in another."""
            s, e = starts[mask], ends[mask]
            if s.size == 0:
                return 0.0
            prior_end = np.maximum.accumulate(np.concatenate(([-np.inf], e[:-1])))
            return float(np.sum((e - s)[s >= prior_end]))

        def incl(*names):
            return inclusive(np.logical_or.reduce([by_name[n] for n in names]))

        def mod(m):
            return span_module == m

        c = self.counters
        cutoff_calls = calls(*CUTOFF)
        newton = calls("solver.solve_banded")
        verify_checks = [n for n in self.names if n.startswith("verify.check_")]
        raw = {
            "specfn.calls": calls(*BESSEL),
            "specfn.points": c["specfn.points"],
            "specfn.self_s": self_s(mod("specfn")),
            "specfn.first_zeros_s": incl("specfn.first_zeros"),
            "analytic.v_mode.calls": calls("analytic.v_mode"),
            "analytic.self_s": self_s(mod("analytic")),
            "analytic.gates_s": incl("pipeline.analytic_checks"),
            "initdata.inner_bc.calls": calls("initdata.EpsilonProblem.inner_bc"),
            "initdata.inner_bc.s": incl("initdata.EpsilonProblem.inner_bc"),
            "initdata.cutoff.calls": cutoff_calls,
            "initdata.cutoff.self_s": self_s(
                by_name[CUTOFF[0]] | by_name[CUTOFF[1]]),
            "initdata.problem_s": incl("initdata.make_epsilon_problem"),
            "initdata.datum_s": incl("initdata.make_initial_datum",
                                     "initdata.choose_amplitude_C"),
            "solver.solves": calls("solver.solve_annulus"),
            "solver.steps": c["solver.steps"],
            "solver.newton_iters": newton,
            "solver.rhs_evals": calls("solver.LaplacianOperator.apply"),
            "solver.gradient.calls": calls("solver.RadialGrid.gradient"),
            "solver.gradient.self_s": self_s(by_name["solver.RadialGrid.gradient"]),
            "solver.banded.self_s": self_s(by_name["solver.solve_banded"]),
            "solver.solve_s": incl("solver.solve_annulus"),
            "solver.self_s": self_s(mod("solver")),
            "solver.compact_difference_s": incl("solver.compact_difference"),
            "verify.checks": calls(*verify_checks),
            "verify.s": inclusive(mod("verify")),
            "verify.weak_identity_s": incl("verify.check_weak_identity"),
            "pipeline.build_model_s": incl("pipeline.build_model"),
            "pipeline.persist_s": incl("pipeline._persist"),
            "pipeline.plotdata_s": incl("pipeline.emit_plotdata"),
        }
        out = {k: v / iterations for k, v in raw.items()}
        # ratios and maxima are not divided by the iteration count
        out["initdata.cutoff.taper_share"] = (
            c["initdata.cutoff.taper_calls"] / cutoff_calls if cutoff_calls else 0.0)
        out["solver.newton_iters_per_step"] = (
            newton / c["solver.steps"] if c["solver.steps"] else 0.0)
        out["solver.max_grad_ratio"] = c["solver.max_grad_ratio"]
        out["trace.spans"] = dur.size / iterations
        return out
