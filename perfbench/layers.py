"""Per-layer tracing of the repro CLI from outside the program.

Each layer is a set of public entry points.  :func:`install` wraps every
entry point where it is defined and at each module that imported it, so
calls through either name are timed; nothing inside ``src/`` changes.
A wrapped call records a span.  A span's *self* time is its duration
minus the time of the spans nested inside it, so the layers' self times
add up to the time spent under ``repro.cli.main``.

Work counts come from return values and arguments at the same
boundaries (ops lowered, events executed, ops faulted, report bytes,
``simulate_step`` calls under the planner and under ``simulate_run``,
and repeated ``build_schedule`` shapes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple


class ImportSiteError(RuntimeError):
    """A layer's entry point or one of its import sites no longer exists,
    so the layer would silently read as 0 s."""


@dataclass(frozen=True)
class Layer:
    """One layer: its name, where its entry points are defined, and the
    modules that are known to import them by name."""

    name: str
    module: str
    #: Entry points as attribute paths in ``module`` (``"f"`` or
    #: ``"Class.method"``).  A callable instead of a tuple picks them
    #: from the imported module (used for "every *_report builder").
    entries: object
    sites: Tuple[str, ...] = ()
    #: A call made directly inside one of these layers is that layer's
    #: own work, counted as its ``probes`` (the replan scan's planner
    #: calls are the scan's cost).
    part_of: Tuple[str, ...] = ()


def _cost_methods(mod) -> Tuple[str, ...]:
    cls = mod.CostModel
    names = sorted(n for n, f in vars(cls).items()
                   if inspect.isfunction(f) and not n.startswith("_")
                   and n.endswith("_seconds"))
    return ("CostModel.__init__",) + tuple(f"CostModel.{n}" for n in names)


def _report_builders(mod) -> Tuple[str, ...]:
    names = sorted(n for n, f in vars(mod).items()
                   if inspect.isfunction(f) and n.endswith("_report")
                   and f.__module__ == mod.__name__)
    return tuple(names) + ("render_json",)


#: Layers in call order, outermost first.  ``sites`` lists the
#: ``module:name`` bindings made by ``from ... import`` at import time;
#: each must still hold the very same function, else ImportSiteError.
LAYERS: Tuple[Layer, ...] = (
    Layer("cli", "repro.cli", ("main",)),
    Layer("parallel.planner", "repro.parallel.planner", ("plan_parallelism",),
          sites=("repro.cli:plan_parallelism",
                 "repro.resilience.run:plan_parallelism"),
          part_of=("parallel.planner.replan",)),
    Layer("parallel.planner.replan", "repro.parallel.planner",
          ("replan_for_gpu_count",),
          sites=("repro.resilience.run:replan_for_gpu_count",)),
    Layer("resilience.run", "repro.resilience.run", ("simulate_run",),
          sites=("repro.resilience:simulate_run",)),
    Layer("train.step", "repro.train.step", ("simulate_step",),
          sites=("repro.faults.goodput:simulate_step",
                 "repro.resilience.run:simulate_step")),
    Layer("pp.schedule", "repro.pp.schedule", ("build_schedule",),
          sites=("repro.train.step:build_schedule",)),
    Layer("train.cost", "repro.train.cost", _cost_methods),
    Layer("train.lowering", "repro.train.lowering", ("lower_step",),
          sites=("repro.train.step:lower_step",)),
    Layer("faults.inject", "repro.faults.inject", ("apply_fault_plan",),
          sites=("repro.faults:apply_fault_plan",)),
    Layer("train.executor", "repro.train.executor", ("execute_graph",),
          sites=("repro.train.step:execute_graph",)),
    Layer("train.executor.summary", "repro.train.executor",
          ("summarize_pipeline_execution",),
          sites=("repro.train.step:summarize_pipeline_execution",)),
    Layer("pp.grad_memory", "repro.pp.grad_memory", ("track_memory",),
          sites=("repro.train.step:track_memory",)),
    Layer("obs.metrics", "repro.obs.metrics",
          ("record_simulator_metrics", "record_comm_overlap_metrics",
           "record_critical_path_metrics"),
          sites=("repro.train.step:record_simulator_metrics",
                 "repro.obs.report:record_simulator_metrics",
                 "repro.faults.goodput:record_comm_overlap_metrics")),
    Layer("faults.detect", "repro.faults.detect", ("score_detection",),
          sites=("repro.faults.goodput:score_detection",)),
    Layer("analysis", "repro.analysis.critical_path",
          ("extract_critical_path",),
          sites=("repro.analysis:extract_critical_path",)),
    Layer("analysis", "repro.analysis.diff", ("diff_traces",),
          sites=("repro.analysis:diff_traces",)),
    Layer("obs.report", "repro.obs.report", _report_builders),
)

LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(l.name for l in LAYERS))


@dataclass
class _Frame:
    layer: str
    start: float
    child: float = 0.0


@dataclass
class Recorder:
    """Span stack plus per-layer totals and work counters for one run."""

    self_s: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0.0))
    calls: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(LAYER_NAMES, 0))
    counters: Dict[str, float] = field(default_factory=dict)
    #: Self time per (request tag, layer), for per-stratum rankings.
    by_tag: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Total duration of outermost spans; the self times must sum to it.
    spans_s: float = 0.0
    tag: str = ""
    _stack: List[_Frame] = field(default_factory=list)
    _schedule_keys: set = field(default_factory=set)

    def begin_request(self, tag: str) -> None:
        self.tag = tag
        self._schedule_keys = set()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def current(self):
        """The innermost open span's layer, or None."""
        return self._stack[-1].layer if self._stack else None

    def inside(self, layer: str) -> bool:
        return any(f.layer == layer for f in self._stack)

    def enter(self, layer: str) -> None:
        self._stack.append(_Frame(layer, time.perf_counter()))

    def exit(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        total = end - frame.start
        own = total - frame.child
        self.self_s[frame.layer] += own
        self.calls[frame.layer] += 1
        key = (self.tag, frame.layer)
        self.by_tag[key] = self.by_tag.get(key, 0.0) + own
        if self._stack:
            self._stack[-1].child += total
        else:
            self.spans_s += total

    def schedule_built(self, shape, kind) -> None:
        key = (shape, kind)
        self.count("pp.schedule.builds")
        if key in self._schedule_keys:
            self.count("pp.schedule.repeats")
        self._schedule_keys.add(key)


def _observe(fn_name: str, rec: Recorder, result) -> None:
    """Work counts taken from one entry point's result."""
    if fn_name == "lower_step":
        rec.count("train.lowering.ops",
                  sum(len(p) for p in result.programs))
    elif fn_name == "execute_graph":
        rec.count("train.executor.events",
                  len(result.events) + len(result.wait_events))
    elif fn_name == "apply_fault_plan":
        rec.count("faults.inject.ops_faulted", result[1].ops_faulted)
    elif fn_name == "render_json":
        rec.count("obs.report.bytes", len(result.encode()))


def _wrap(layer: Layer, fn_name: str, fn: Callable, rec: Recorder) -> Callable:
    def traced(*args, **kwargs):
        parent = rec.current()
        if parent in layer.part_of:
            rec.count(f"{parent}.probes")
            return fn(*args, **kwargs)
        if fn_name == "simulate_step":
            if rec.inside("parallel.planner"):
                rec.count("parallel.planner.steps")
            if rec.inside("resilience.run"):
                rec.count("resilience.run.steps")
        elif fn_name == "build_schedule":
            shape = args[0] if args else kwargs["shape"]
            kind = (args[1] if len(args) > 1
                    else kwargs.get("kind", "flexible"))
            rec.schedule_built(shape, kind)
        rec.enter(layer.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        _observe(fn_name, rec, result)
        return result

    return functools.wraps(fn)(traced)


def _resolve(mod, path: str):
    owner, _, attr = path.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    return holder, attr, inspect.getattr_static(holder, attr)


def _import(layer: Layer, name: str):
    try:
        return importlib.import_module(name)
    except ImportError as err:
        raise ImportSiteError(
            f"layer {layer.name}: module {name} is gone ({err})") from None


def preload() -> None:
    """Import every layer module and import site, so that neither a
    traced nor an untraced pass pays for imports inside its timing."""
    for layer in LAYERS:
        _import(layer, layer.module)
        for site in layer.sites:
            _import(layer, site.partition(":")[0])


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points; return a function that undoes it.

    Raises :class:`ImportSiteError` when an entry point or a listed
    import site is gone.
    """
    # Import everything first, so that no import site binds a wrapper.
    preload()
    targets: List[Tuple[Layer, object, str, Callable]] = []
    for layer in LAYERS:
        mod = sys.modules[layer.module]
        entries = (layer.entries(mod) if callable(layer.entries)
                   else layer.entries)
        found = {}
        for path in entries:
            try:
                holder, attr, fn = _resolve(mod, path)
            except AttributeError:
                raise ImportSiteError(
                    f"layer {layer.name}: {layer.module}.{path} no longer "
                    "exists") from None
            targets.append((layer, holder, attr, fn))
            found[attr] = fn
        for site in layer.sites:
            site_name, _, attr = site.partition(":")
            bound = getattr(sys.modules[site_name], attr, None)
            if attr not in found or bound is not found[attr]:
                raise ImportSiteError(
                    f"layer {layer.name}: import site {site_name}.{attr} "
                    f"no longer binds {layer.module}.{attr}")
    undo: List[Tuple[object, str, object]] = []
    originals: Dict[int, Callable] = {}
    for layer, holder, attr, fn in targets:
        wrapped = _wrap(layer, attr, fn, rec)
        undo.append((holder, attr, fn))
        setattr(holder, attr, wrapped)
        originals[id(fn)] = wrapped
    # Rebind every module-level name that still points at an original,
    # listed site or not, so no call path escapes the wrappers.
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapped)

    def uninstall() -> None:
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)

    return uninstall


class AccountingError(AssertionError):
    """Layer self times do not add up to the traced time."""


def summarize(self_s: Dict[str, float], calls: Dict[str, int],
              counters: Dict[str, float], spans_s: float, wall_s: float,
              n_requests: int,
              untraced_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    Raises :class:`AccountingError` unless every self time is
    non-negative, the self times sum to the outermost spans' time, and
    that plus the unwrapped remainder is the traced wall time.
    """
    total_self = sum(self_s.values())
    remainder = wall_s - spans_s
    negative = [k for k, v in self_s.items() if v < -1e-9]
    if (negative or abs(total_self - spans_s) > 1e-9 * max(spans_s, 1.0)
            or remainder < 0.0):
        raise AccountingError(
            f"self times do not add up: negative layers {negative}, "
            f"sum of self {total_self:.9f} s, spans {spans_s:.9f} s, "
            f"traced wall {wall_s:.9f} s")
    out: Dict[str, Tuple[float, str]] = {}
    for name in LAYER_NAMES:
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.share"] = (self_s[name] / wall_s, "fraction")
    c = counters
    events = c.get("train.executor.events", 0)
    exec_s = self_s["train.executor"]
    builds = c.get("pp.schedule.builds", 0)
    out.update({
        "unwrapped_s": (remainder, "s"),
        "train.lowering.ops": (c.get("train.lowering.ops", 0), "count"),
        "train.executor.events": (events, "count"),
        "train.executor.events_per_s": (events / exec_s if exec_s else 0.0,
                                        "1/s"),
        "faults.inject.ops_faulted": (c.get("faults.inject.ops_faulted", 0),
                                      "count"),
        "obs.report.bytes": (c.get("obs.report.bytes", 0), "B"),
        "parallel.planner.replan.probes": (
            c.get("parallel.planner.replan.probes", 0), "count"),
        "parallel.planner.steps_per_request": (
            c.get("parallel.planner.steps", 0) / n_requests, "count"),
        "resilience.run.steps_per_request": (
            c.get("resilience.run.steps", 0) / n_requests, "count"),
        "pp.schedule.repeat_ratio": (
            c.get("pp.schedule.repeats", 0) / builds if builds else 0.0,
            "fraction"),
        "trace_wall_s": (wall_s, "s"),
        "trace_overhead": (wall_s / untraced_wall_s - 1.0, "fraction"),
    })
    return out


def top_layer_by_tag(rec: Recorder) -> Dict[str, Tuple[str, float]]:
    """The layer with the most self time for each request tag, with its
    share of that tag's traced time."""
    totals: Dict[str, float] = {}
    best: Dict[str, Tuple[str, float]] = {}
    for (tag, layer), s in rec.by_tag.items():
        totals[tag] = totals.get(tag, 0.0) + s
        if s > best.get(tag, ("", -1.0))[1]:
            best[tag] = (layer, s)
    return {tag: (layer, s / totals[tag] if totals[tag] else 0.0)
            for tag, (layer, s) in sorted(best.items())}
