"""In-process span tracer for one traced CLI run, and the per-layer
metrics derived from its spans.

``install`` replaces every public function of the six package layers
(``cli``, ``harness``, ``stepper``, ``problems``, ``spectral``,
``tableau``), plus ``SpectralGrid.transform_array``, by a wrapper in
every ``rkspectral`` module that holds a reference to it, so calls made
through ``from .x import f`` bindings are seen too.  Each call records
one span (name, start, end, parent, run id) in flat in-memory arrays;
``Tracer.save`` writes them out when the run ends.  Nothing in the
package is edited.

A few wrappers attach a classification to the span name at the
boundary where the work happens:

* a step (``step``/``tangent_step``) inside a study span is tagged
  ``@reference`` when it uses another tableau than the study's own,
  and ``@ladder`` otherwise;
* ``step_matrices`` is tagged ``@new`` the first time a (tableau, h,
  grid) key is seen in the process, with the bytes of the returned
  arrays as the span value;
* step spans carry the stage iteration count as their value;
* a span that raised a solver failure first is tagged ``@failed``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "harness", "stepper", "problems", "spectral", "tableau")
_SOLVER_FAILURES = ("ConvergenceFailureError", "NumericalBlowupError")
_STEP_FUNCTIONS = ("stepper.step", "stepper.tangent_step")
# Called only from inside base_norm; its spans would add a quarter of all
# spans of the order workload and feed no metric.
_UNTRACED = ("spectral.base_norm_sq",)


def _tableau_key(t):
    return (t.a.tobytes(), t.b.tobytes())


def _arg_getter(fn, name):
    """Fast accessor for one named argument of calls to ``fn``."""
    params = list(inspect.signature(fn).parameters)
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs.get(name)

    return get


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack = [-1]
        self.studies: list = []  # tableau keys of the enclosing study spans
        self.matrix_keys: set = set()
        self.failures_seen: set = set()

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, label: str, fn):
        tracer = self
        nid = self.intern(label)
        name_id, parent, start, end, value = (
            self.name_id, self.parent, self.start, self.end, self.value)
        stack = self.stack
        clock = time.perf_counter
        tag = self._tagger(label, fn)
        is_step = label in _STEP_FUNCTIONS
        is_matrices = label == "spectral.step_matrices"

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            pop_study = tag(idx, args, kwargs) if tag else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_failure(idx, exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                if pop_study:
                    tracer.studies.pop()
                start[idx] = t0
                end[idx] = t1
            if is_step:
                value[idx] = out[-1].iterations
            elif is_matrices and value[idx] < 0:
                value[idx] = float(sum(a.nbytes for a in out))
            return out

        return functools.update_wrapper(traced, fn)

    def _tagger(self, label, fn):
        """Pre-call hook classifying the span, or None."""
        get_t = _arg_getter(fn, "t")
        if label.startswith("harness.") and "study" in label:
            def study(idx, args, kwargs):
                t = get_t(args, kwargs) if get_t else None
                self.studies.append(_tableau_key(t) if t is not None else None)
                return True
            return study
        if label in _STEP_FUNCTIONS and get_t:
            ref_id = self.intern(label + "@reference")
            ladder_id = self.intern(label + "@ladder")

            def step(idx, args, kwargs):
                own = next((k for k in reversed(self.studies) if k is not None), None)
                if own is not None:
                    ref = _tableau_key(get_t(args, kwargs)) != own
                    self.name_id[idx] = ref_id if ref else ladder_id
                return False
            return step
        if label == "spectral.step_matrices":
            get_h = _arg_getter(fn, "h")
            get_grid = _arg_getter(fn, "grid")
            new_id = self.intern(label + "@new")

            def matrices(idx, args, kwargs):
                grid = get_grid(args, kwargs)
                key = (_tableau_key(get_t(args, kwargs)), float(get_h(args, kwargs)),
                       grid.equation, grid.bc, grid.n)
                if key not in self.matrix_keys:
                    self.matrix_keys.add(key)
                    self.name_id[idx] = new_id
                    self.value[idx] = -1.0  # filled with the result's bytes
                return False
            return matrices
        return None

    def _note_failure(self, idx, exc):
        if type(exc).__name__ in _SOLVER_FAILURES and id(exc) not in self.failures_seen:
            self.failures_seen.add(id(exc))
            self.name_id[idx] = self.intern(self.names[self.name_id[idx]] + "@failed")

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            value=np.frombuffer(self.value, dtype=np.float64),
            run_id=np.full(len(self.name_id), self.run_id, dtype=np.int32),
        )


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def install(run_id: int) -> Tracer:
    """Wrap the layers' public functions in every loaded package module."""
    tracer = Tracer(run_id)
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"rkspectral.{layer}"]
        for name, fn in _public_functions(module):
            if f"{layer}.{name}" not in _UNTRACED:
                originals[id(fn)] = (f"{layer}.{name}", fn)
    wrappers = {key: tracer.wrap(label, fn) for key, (label, fn) in originals.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "rkspectral" and not modname.startswith("rkspectral."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and originals[id(obj)][1] is obj:
                setattr(module, name, wrapper)
    grid_cls = sys.modules["rkspectral.spectral"].SpectralGrid
    grid_cls.transform_array = tracer.wrap(
        "spectral.SpectralGrid.transform_array", grid_cls.transform_array)
    return tracer


# -- metrics derived from spans ------------------------------------------------


def _load(path):
    import numpy as np

    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_totals(path) -> dict:
    """Additive per-layer quantities of one traced process.

    Totals from several processes of one workload iteration are summed
    with ``add_totals`` before ``finalize`` turns them into metrics.
    """
    import numpy as np

    spans = _load(path)
    names = [str(n) for n in spans["names"]]
    nid = spans["name_id"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    value = spans["value"]
    n = len(nid)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time

    def ids(pred):
        return np.array([i for i, name in enumerate(names) if pred(name)], dtype=np.int32)

    def select(pred):
        return np.isin(nid, ids(pred))

    def base(name):
        return name.split("@", 1)[0]

    def is_(*labels):
        return lambda name: base(name) in labels

    layer_of = np.array([LAYERS.index(name.split(".", 1)[0]) for name in names], dtype=np.int32)
    layer_self = np.bincount(layer_of[nid], weights=self_time, minlength=len(LAYERS))

    study = select(lambda name: name.startswith("harness.") and "study" in name)
    outer_study = study & ~np.isin(parent, np.nonzero(study)[0])
    step = select(is_("stepper.step"))
    tangent = select(is_("stepper.tangent_step"))
    fps = select(is_("stepper.fixed_point_stages"))
    fps_in_step = np.bincount(parent[fps & has_parent], weights=dur[fps & has_parent],
                              minlength=n)
    reference = select(lambda name: name.endswith("@reference"))
    ladder = select(lambda name: name.endswith("@ladder"))
    matrices = select(is_("spectral.step_matrices"))
    new_matrices = select(lambda name: name == "spectral.step_matrices@new")

    def total(mask, weights=dur):
        return float(weights[mask].sum())

    totals = {
        "spans": n,
        "tableau.builds": int(select(is_("tableau.gauss_legendre")).sum()),
        "tableau.build_s": total(select(is_("tableau.gauss_legendre"))),
        "harness.study_s": total(outer_study),
        "harness.reference_s": total(reference),
        "harness.reference_steps": int(reference.sum()),
        "harness.ladder_s": total(ladder),
        "harness.ladder_steps": int(ladder.sum()),
        "harness.observer_s": total(select(is_("harness.conserved_quantities"))),
        "harness.probe_s": total(select(is_("harness.stability_growth",
                                            "harness.smoothness_probe"))),
        "stepper.steps": int(step.sum()),
        "stepper.step_s": total(step),
        "stepper.stage_solve_s": total(fps),
        "stepper.update_s": float((dur - fps_in_step)[step].sum()),
        "stepper.stage_iters": int(value[step | tangent].sum()),
        "stepper.tangent_steps": int(tangent.sum()),
        "stepper.tangent_step_s": total(tangent),
        "stepper.solver_failures": int(select(lambda name: name.endswith("@failed")).sum()),
        "problems.B_evals": int(select(is_("problems.evaluate_B_array")).sum()),
        "problems.B_s": total(select(is_("problems.evaluate_B_array"))),
        "problems.B_tangent_evals": int(select(is_("problems.evaluate_B_tangent_array")).sum()),
        "problems.B_tangent_s": total(select(is_("problems.evaluate_B_tangent_array"))),
        "problems.dealias_s": total(select(is_("problems.dealias_mask"))),
        "spectral.transform_calls": int(select(is_(
            "spectral.SpectralGrid.transform_array", "spectral.inverse_transform_array")).sum()),
        "spectral.transform_s": total(select(is_(
            "spectral.SpectralGrid.transform_array", "spectral.inverse_transform_array"))),
        "spectral.norm_calls": int(select(is_("spectral.base_norm")).sum()),
        "spectral.norm_s": total(select(is_("spectral.base_norm"))),
        "spectral.matrix_calls": int(matrices.sum()),
        "spectral.matrix_keys": int(new_matrices.sum()),
        "spectral.matrix_s": total(matrices),
        "spectral.matrix_bytes_computed": total(new_matrices, value),
    }
    for i, layer in enumerate(LAYERS):
        totals[f"{layer}.self_s"] = float(layer_self[i])
    return totals


def add_totals(a: dict, b: dict) -> dict:
    return {key: a.get(key, 0) + b[key] for key in b}


# name -> (unit, better); the order here is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "tableau.builds": ("count", "lower"),
    "tableau.build_s": ("s", "lower"),
    "tableau.self_s": ("s", "lower"),
    "harness.study_s": ("s", "lower"),
    "harness.reference_s": ("s", "lower"),
    "harness.reference_steps": ("count", "lower"),
    "harness.ladder_s": ("s", "lower"),
    "harness.ladder_steps": ("count", "lower"),
    "harness.observer_s": ("s", "lower"),
    "harness.probe_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "stepper.steps": ("count", "lower"),
    "stepper.step_us": ("us", "lower"),
    "stepper.stage_solve_s": ("s", "lower"),
    "stepper.update_s": ("s", "lower"),
    "stepper.stage_iters": ("count", "lower"),
    "stepper.iters_per_step": ("count/step", "lower"),
    "stepper.tangent_steps": ("count", "lower"),
    "stepper.tangent_step_us": ("us", "lower"),
    "stepper.solver_failures": ("count", "lower"),
    "stepper.self_s": ("s", "lower"),
    "problems.B_evals": ("count", "lower"),
    "problems.B_per_step": ("count/step", "lower"),
    "problems.B_s": ("s", "lower"),
    "problems.B_tangent_evals": ("count", "lower"),
    "problems.B_tangent_s": ("s", "lower"),
    "problems.dealias_s": ("s", "lower"),
    "problems.self_s": ("s", "lower"),
    "spectral.transform_calls": ("count", "lower"),
    "spectral.transform_s": ("s", "lower"),
    "spectral.norm_calls": ("count", "lower"),
    "spectral.norm_s": ("s", "lower"),
    "spectral.matrix_calls": ("count", "lower"),
    "spectral.matrix_keys": ("count", "lower"),
    "spectral.matrix_hit_ratio": ("ratio", "higher"),
    "spectral.matrix_s": ("s", "lower"),
    "spectral.matrix_bytes_computed": ("bytes", "lower"),
    "spectral.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "stepper.steps",
    "stepper.stage_iters",
    "problems.B_evals",
    "spectral.matrix_keys",
    "harness.reference_steps",
)


def finalize(totals: dict) -> dict:
    """Per-layer metrics of one workload iteration (without the overhead)."""
    steps = totals["stepper.steps"]
    tangent = totals["stepper.tangent_steps"]
    calls = totals["spectral.matrix_calls"]
    metrics = {key: totals[key] for key in PER_LAYER if key in totals}
    metrics["trace.spans"] = totals["spans"]
    metrics["stepper.step_us"] = 1e6 * totals["stepper.step_s"] / steps if steps else 0.0
    metrics["stepper.tangent_step_us"] = (
        1e6 * totals["stepper.tangent_step_s"] / tangent if tangent else 0.0)
    metrics["stepper.iters_per_step"] = (
        totals["stepper.stage_iters"] / (steps + tangent) if steps + tangent else 0.0)
    metrics["problems.B_per_step"] = (
        totals["problems.B_evals"] / (steps + tangent) if steps + tangent else 0.0)
    metrics["spectral.matrix_hit_ratio"] = (
        1.0 - totals["spectral.matrix_keys"] / calls if calls else 0.0)
    return metrics
