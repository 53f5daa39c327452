"""Span recorder that wraps etac's public functions from outside the package.

Tracing is installed by monkeypatching: every public function listed in the
``__all__`` of ``etac.domain``, ``etac.runtime``, ``etac.analysis``,
``etac.oracle`` and ``etac.cli`` is replaced, in every module that holds a
reference to it, by a wrapper that records one span per call.  The package
source is not edited.  Three boundaries are not module-level functions and are
wrapped explicitly: ``RngStream.generator``, the plant's ``dynamics`` and
``control_law`` callables (wrapped on each plant the factories return), and
``cli._mc_worker``, the unit of work the montecarlo process pool runs.
``domain.sat`` is left unwrapped: it is a scalar clip called inside the plant
map, and its time belongs to ``domain.dynamics`` / ``domain.control_law``.

A span is (name, start, end, parent, trial id).  Spans are kept in flat
arrays in memory and written once, at the end of a run.  Pool workers start
by ``fork`` and inherit the patched modules; each worker writes the spans of
the chunks it ran to a file, and the parent merges those files, so a worker's
spans hang under the ``cli.run_paired_cells`` span that started the pool.  Under
another start method the workers would run unwrapped code; the child's
``trace_saw_all_work`` check would then fail rather than under-report.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pickle
import time
from array import array
from collections import Counter

#: Functions called inside the plant map; see the module docstring.
UNWRAPPED = {("domain", "sat")}

#: The benchmark's own span around one job; its self time is unattributed time.
JOB = "bench.job"


class Recorder:
    """Flat in-memory span store for one process.

    ``parent`` holds the index of the enclosing span, or -1 at the top.
    ``counts`` accumulates work counters read from the wrapped functions'
    arguments and results.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.stack: list[int] = [-1]
        self.current_trial = -1
        self.counts: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.trial.append(self.current_trial)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, self.intern(name))

    def reset(self) -> None:
        """Drop the spans inherited over ``fork``; new top-level spans get -1."""
        for arr in (self.name, self.start, self.end, self.parent, self.trial):
            del arr[:]
        self.stack[:] = [-1]
        self.counts.clear()

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trial": self.trial,
            "counts": dict(self.counts),
        }

    def merge(self, part: dict, root_parent: int) -> None:
        """Append spans recorded in another process; its top-level spans get ``root_parent``."""
        offset = len(self.start)
        ids = [self.intern(n) for n in part["names"]]
        self.name.extend(ids[i] for i in part["name"])
        self.start.extend(part["start"])
        self.end.extend(part["end"])
        self.parent.extend(root_parent if p < 0 else p + offset for p in part["parent"])
        self.trial.extend(part["trial"])
        for key, value in part["counts"].items():
            self.count(key, value)


class _Span:
    def __init__(self, rec: Recorder, name_id: int) -> None:
        self.rec, self.name_id = rec, name_id

    def __enter__(self):
        self.idx = self.rec.open(self.name_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.rec.close(self.idx, self.t0, time.perf_counter())


def self_times(names, name, start, end, parent) -> dict[str, float]:
    """Total self time per span name: duration minus the union of child intervals.

    Children in one process never overlap, but pool workers' spans run side by
    side under one parent, so covered time is the union of child intervals,
    clipped to the parent's own interval.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append(i)
    totals: dict[str, float] = {}
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            s, e = max(start[c], reach), min(end[c], hi)
            if e > s:
                covered += e - s
            reach = max(reach, min(end[c], hi))
        key = names[name[i]]
        totals[key] = totals.get(key, 0.0) + (hi - lo) - covered
    return totals


def call_counts(names, name) -> dict[str, int]:
    return dict(Counter(names[i] for i in name))


# ---------------------------------------------------------------------------
# installation


def _wrap(rec: Recorder, fn, span_name: str, pre=None, post=None):
    name_id = rec.intern(span_name)
    perf = time.perf_counter

    def wrapper(*args, **kwargs):
        if pre is not None:
            pre(args, kwargs)
        idx = rec.open(name_id)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx, t0, perf())
        if post is not None:
            post(args, kwargs, result)
        return result

    return functools.update_wrapper(wrapper, fn)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(trace_dir: str) -> Recorder:
    """Wrap etac's public functions; returns the recorder the wrappers feed.

    Pool workers write their spans under ``trace_dir``; :func:`collect_workers`
    merges them back.
    """
    import etac
    from etac import analysis, cli, domain, oracle, runtime

    rec = Recorder()
    modules = {"domain": domain, "runtime": runtime, "analysis": analysis,
               "oracle": oracle, "cli": cli}
    holders = list(modules.values()) + [etac]

    def trial_pre(args, kwargs):
        rec.current_trial = _arg(args, kwargs, 5, "rng").stream_id

    def trajectory_post(args, kwargs, trace):
        rec.current_trial = -1
        rec.count("runtime.steps", len(trace.records))
        rec.count("runtime.diverged", trace.diverged)

    def csv_post(args, kwargs, _):
        rec.count("runtime.csv_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    def pmf_post(args, kwargs, result):
        rec.count("analysis.pmf_terms", 1 if isinstance(result, float) else len(result))

    def returns_post(args, kwargs, result):
        rec.count("oracle.returns", result.total)

    plant_step_parent = rec.intern("runtime.run_trajectory")
    dynamics_id = rec.intern("domain.dynamics")
    perf = time.perf_counter

    def wrap_dynamics(fn):
        # A plant step (called from run_trajectory, not from the anytime
        # forward simulation) with a nonzero input applies a control-law output.
        def dynamics(x, u):
            if rec.stack[-1] >= 0 and rec.name[rec.stack[-1]] == plant_step_parent and u.any():
                rec.count("runtime.kappa_applied", 1)
            idx = rec.open(dynamics_id)
            t0 = perf()
            try:
                return fn(x, u)
            finally:
                rec.close(idx, t0, perf())
        return dynamics

    def plant_post_factory(fn):
        wrapped = _wrap(rec, fn, "domain.make_plant")

        def make_plant(*args, **kwargs):
            plant = wrapped(*args, **kwargs)
            return dataclasses.replace(
                plant,
                dynamics=wrap_dynamics(plant.dynamics),
                control_law=_wrap(rec, plant.control_law, "domain.control_law"),
            )

        return functools.update_wrapper(make_plant, fn)

    hooks = {
        "run_trajectory": (trial_pre, trajectory_post),
        "write_trace_csv": (None, csv_post),
        "return_time_pmf": (None, pmf_post),
        "return_time_pmf_upto": (None, pmf_post),
        "return_time_pmf_truncated": (None, pmf_post),
        "simulate_lambda_chain": (None, returns_post),
    }
    replacements: dict[int, object] = {}
    for short, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if (short, attr) in UNWRAPPED or not callable(fn) or isinstance(fn, type):
                continue
            if getattr(fn, "__module__", None) != mod.__name__:
                continue  # re-exported from another module; wrapped there
            if attr in ("make_sat_plant", "make_scalar_plant"):
                replacements[id(fn)] = plant_post_factory(fn)
                continue
            pre, post = hooks.get(attr, (None, None))
            replacements[id(fn)] = _wrap(rec, fn, f"{short}.{attr}", pre, post)
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if id(value) in replacements and callable(value):
                setattr(holder, attr, replacements[id(value)])

    runtime.RngStream.generator = _wrap(rec, runtime.RngStream.generator, "runtime.rng_generator")
    cli._mc_worker = _worker_wrapper(rec, cli._mc_worker, trace_dir)
    return rec


def _worker_wrapper(rec: Recorder, fn, trace_dir: str):
    """Wrap the pool's unit of work; in a forked worker, write its spans to a file."""
    inner = _wrap(rec, fn, "cli.mc_worker")

    origin = os.getpid()
    worker: dict = {}  # a forked copy starts empty

    def _mc_worker(args):
        if os.getpid() == origin:
            return inner(args)
        if not worker:  # first chunk in this worker: the span open when the pool forked
            worker["root_parent"] = rec.stack[-1]
        rec.reset()
        result = inner(args)
        part = rec.export()
        part["root_parent"] = worker["root_parent"]
        path = os.path.join(trace_dir, f"worker-{os.getpid()}-{args[1]}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(part, fh, protocol=pickle.HIGHEST_PROTOCOL)
        rec.reset()
        return result

    return functools.update_wrapper(_mc_worker, fn)


def collect_workers(rec: Recorder, trace_dir: str) -> int:
    """Merge the span files pool workers wrote; returns how many were merged."""
    files = sorted(f for f in os.listdir(trace_dir) if f.startswith("worker-"))
    for f in files:
        path = os.path.join(trace_dir, f)
        with open(path, "rb") as fh:
            part = pickle.load(fh)  # written by this benchmark's own workers
        rec.merge(part, part["root_parent"])
        os.remove(path)
    return len(files)
