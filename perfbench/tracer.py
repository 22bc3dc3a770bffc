"""Spans at bernjac's module boundaries, recorded from outside the program.

``Tracer.install`` replaces each boundary function of the layer modules with
a recording wrapper, in every bernjac namespace that holds a reference to it
(``from .x import f`` copies the reference, so patching the defining module
alone would miss callers).  A boundary function is a public function defined
in the module, or a private one another module imports.  ``remove`` puts the
originals back.  Spans (name, start, end, parent, op id, count) live in flat
arrays and are written once, at the end of the run.

A function that a later version of the library drops is simply not found:
its metrics read zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("specialfn", "bases", "jacobi_to_bernstein", "bernstein_to_jacobi", "degree_reduction", "cli")
PRODUCTION = {"jacobi_to_bernstein": "c_theorem2", "bernstein_to_jacobi": "d_theorem4"}
OP = "op"


def _gram_entries(args, out):
    dim = getattr(args[0], "dim", None) if args else None
    return dim * (dim + 1) / 2 if isinstance(dim, int) else 0.0


def _recurrence_steps(args, out):
    steps = getattr(out, "recurrence_steps", None)
    return float(steps) if isinstance(steps, int) else 0.0


def _count_hook(qualname: str):
    module = qualname.split(".", 1)[0]
    if qualname == "bases.bernstein_gram":
        return _gram_entries
    if module in PRODUCTION:
        return _recurrence_steps
    return None


class Tracer:
    """Span recorder; ``with Tracer(cap):`` installs the wrappers for the
    block.  ``full`` turns true once ``cap`` spans are held."""

    def __init__(self, cap: int):
        self.cap = cap
        self.names: list[str] = [OP]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._patched: list[tuple[dict, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.start) >= self.cap

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.count.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def begin_op(self, op_id: int) -> tuple[int, float]:
        self._op_id = op_id
        idx = self._open(0)
        return idx, perf_counter()

    def end_op(self, token: tuple[int, float]) -> None:
        self._close(token[0], token[1], perf_counter())

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = _count_hook(qualname)
        open_, close = self._open, self._close
        count = self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx, t0, perf_counter())
            if hook is not None:
                count[idx] = hook(args, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function in every namespace that refers to it."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"bernjac.{layer}")
            except ImportError:
                continue
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if m is not None and (name == "bernjac" or name.startswith("bernjac."))]
        defined = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    defined[id(obj)] = (f"{layer}.{attr}", obj)
        imported_elsewhere = {id(v) for ns in namespaces for v in ns.values()
                              if id(v) in defined and v.__module__ != ns.get("__name__")}
        wrappers = {key: self._wrap(qn, fn) for key, (qn, fn) in defined.items()
                    if not qn.split(".", 1)[1].startswith("_") or key in imported_elsewhere}
        for ns in namespaces:
            for attr, value in list(ns.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is defined[id(value)][1]:
                    self._patched.append((ns, attr, value))
                    ns[attr] = wrapper

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(names: list[str], spans: dict) -> dict:
    """Per-layer metrics, each a mean per op, from recorded spans."""
    name_id, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    count = spans["count"]
    ops = max(int(np.sum(name_id == 0)), 1)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    module_of_name = np.array([n.split(".", 1)[0] for n in names])
    module = module_of_name[name_id]
    parent_module = np.where(has_parent, module[np.maximum(parent, 0)], "")
    by_name = {n: name_id == i for i, n in enumerate(names)}
    none = np.zeros(len(dur), dtype=bool)

    def named(qualname):
        return by_name.get(qualname, none)

    def ms(mask, values=dur):
        return float(np.sum(values[mask])) * 1e3 / ops

    def per_op(mask, values=None):
        return float(np.sum(mask) if values is None else np.sum(values[mask])) / ops

    out = {}
    for qn in ("bases.bernstein_gram", "jacobi_to_bernstein.c_theorem2", "bernstein_to_jacobi.d_theorem4",
               "degree_reduction.elevate", "degree_reduction.forced_boundary", "cli.matrix_csv"):
        out[f"{qn}_ms"] = ms(named(qn))
    for qn in ("bases.bernstein_gram", "jacobi_to_bernstein.c_theorem2", "bernstein_to_jacobi.d_theorem4",
               "specialfn.hahn_eval", "specialfn.gen_binomial", "specialfn.beta_fn"):
        out[f"{qn}_calls"] = per_op(named(qn))
    for qn in ("degree_reduction.reduce", "cli.main", "cli.run_checks"):
        out[f"{qn}_self_ms"] = ms(named(qn), self_time)
    out["bases.gram_entries"] = per_op(named("bases.bernstein_gram"), count)
    for mod, production in PRODUCTION.items():
        outer = (module == mod) & (parent_module != mod)
        out[f"{mod}.recurrence_steps"] = per_op(outer, count)
        out[f"{mod}.reference_ms"] = ms(outer & ~named(f"{mod}.{production}"))
    transforms = np.isin(module, list(PRODUCTION))
    out["degree_reduction.builds_per_op"] = per_op(transforms & (parent_module == "degree_reduction"))
    out["specialfn.busy_ms"] = ms((module == "specialfn") & (parent_module != "specialfn"))
    return out
