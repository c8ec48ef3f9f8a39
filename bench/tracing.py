"""Spans around the calls into each ``credalnet`` layer, recorded from
the benchmark's own code.

:meth:`Tracer.install` replaces every public function of every engine
module with a timing wrapper, at every module binding (so
``conditioning.set_relations`` is wrapped as well as
``graph.set_relations``), plus the constructors and query methods of the
layer classes listed in :data:`METHODS` and the benchmark's own
``harness.load_unvalidated``, recorded as a ``fileio`` span.  Each call
becomes one span: name, start, end, the span that caused it, the query
it belongs to, and whether it raised.  Spans are kept in flat arrays and
written out once, by :meth:`Tracer.save`; :func:`self_times` and
:func:`layer_metrics` reduce them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

import guard
import harness

#: Engine modules; a span name is ``<module>.<function>`` or
#: ``<module>.<Class>.<method>``.
MODULES = ("fileio", "network", "graph", "credal", "polytope", "simplex",
           "lp", "conditioning", "chains", "decompose", "oracle", "queries")

#: Methods of the layer classes that are traced besides module functions.
METHODS = {
    "credal": {"CredalSet": ("__init__", "lower_expectation")},
    "lp": {"GlobalPolytope": ("__init__", "minimize")},
    "conditioning": {"RhoEvaluator": ("rho",)},
    "chains": {"TransferOperator": ("__init__", "__call__", "upper")},
}

#: Span flags.
OK, RAISED, DEADLINE = 0, 1, 2


#: Fields of one span record, in order.
FIELDS = ("name", "parent", "query", "flag", "start", "end")
_W = len(FIELDS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: one record of len(FIELDS) doubles per span; a record is added by
        #: a single ``extend`` call, which the deadline signal cannot split
        self.buf = array("d")
        #: span index -> attributes recorded by the hooks below
        self.attrs: dict[int, dict] = {}
        self.current_query = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper around ``fn``; ``hook(attrs, args, result)``
        records attributes of a call after its span has ended."""
        nid = self._name_id(name)
        stack = self._stack
        buf = self.buf
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(buf) // _W
            buf.extend((nid, stack[-1] if stack else -1, self.current_query,
                        OK, clock(), 0.0))
            depth = len(stack)
            try:
                stack.append(idx)
                result = fn(*args, **kwargs)
            except guard.DeadlineExceeded:
                buf[idx * _W + 3] = DEADLINE
                raise
            except BaseException:
                buf[idx * _W + 3] = RAISED
                raise
            finally:
                buf[idx * _W + 5] = clock()
                del stack[depth:]
            if hook is not None:
                hook(self.attrs.setdefault(idx, {}), args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the engine's public functions at every module binding and
        the methods in :data:`METHODS`."""
        mods = {m: importlib.import_module(f"credalnet.{m}") for m in MODULES}
        bindings = [importlib.import_module("credalnet"),
                    importlib.import_module("credalnet.cli"),
                    *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{short}.{attr}", fn,
                                   HOOKS.get(f"{short}.{attr}"))
                for holder in bindings:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, name, fn))
                            setattr(holder, name, traced)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(name, fn, HOOKS.get(name)))
        # the benchmark's own load of networks too large to validate
        fn = harness.load_unvalidated
        self._restore.append((harness, "load_unvalidated", fn))
        harness.load_unvalidated = self.wrap("fileio.load_unvalidated", fn)

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict:
        table = np.frombuffer(self.buf, dtype=np.float64).reshape(-1, _W)
        out = {f: table[:, i].copy() for i, f in enumerate(FIELDS)}
        for f in ("name", "parent", "query", "flag"):
            out[f] = out[f].astype(np.int64)
        # a span cut off by the deadline signal before it was entered
        out["end"] = np.maximum(out["end"], out["start"])
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- attribute hooks ----------------------------------------------------------

def _lp_dims(attrs: dict, rows, total: int) -> None:
    rows = np.asarray(rows)
    attrs.update(vars=int(total), rows=int(rows.shape[0]),
                 nnz=int(np.count_nonzero(rows)), dense_mb=rows.nbytes / 2**20)


def _chain_steps(attrs, args, result):
    attrs["steps"] = len(args[0].dag.nodes) - 1


HOOKS = {
    "lp.GlobalPolytope.__init__":
        lambda attrs, args, result: _lp_dims(attrs, args[0].rows,
                                             args[0].idx.total),
    "lp.build_global_lp":
        lambda attrs, args, result: _lp_dims(attrs, result.ineq_rows,
                                             len(result.variables)),
    "lp.lower_expectation_lp":
        lambda attrs, args, result: attrs.update(
            nodes=len(args[0].dag.nodes)),
    "simplex.solve":
        lambda attrs, args, result: attrs.update(status=result.status),
    "chains.chain_forward": _chain_steps,
    "chains.chain_reverse_rho": _chain_steps,
    "chains.hmm_forward_rho":
        lambda attrs, args, result: attrs.update(
            steps=len(args[0].obs_nodes) + 1),
}


# -- reduction ----------------------------------------------------------------

def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans
    cover.  Spans of one thread nest, so that part is the sum of the
    children's durations."""
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times (ms) over every recorded span."""
    a = tracer.arrays()
    ids = a["name"]
    parent = a["parent"]
    has_parent = parent >= 0
    names = np.array(tracer.names + [""], dtype=object)
    modules = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    # the parent's name id, or the id of "" for top-level spans
    parent_id = np.where(has_parent, ids[np.maximum(parent, 0)],
                         len(names) - 1)
    module = modules[ids]
    parent_module = modules[parent_id]
    duration = (a["end"] - a["start"]) * 1e3
    selft = self_times(parent, a["start"], a["end"]) * 1e3
    # a layer's top spans: those not called from inside the same layer
    top = module != parent_module

    def is_name(*wanted, of=ids):
        known = [tracer._ids[w] for w in wanted if w in tracer._ids]
        return np.isin(of, known)

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def total(values, mask) -> float:
        return float(values[mask].sum())

    def attr_values(mask, key):
        return [tracer.attrs.get(int(i), {}).get(key, 0)
                for i in np.nonzero(mask)[0]]

    m: dict[str, float] = {}
    m["fileio.load_ms"] = total(duration, (module == "fileio") & top)
    construct = is_name("credal.CredalSet.__init__")
    m["credal.construct_ms"] = total(duration, construct & top)
    m["credal.constructs"] = count(construct)
    poly = (module == "polytope") & top
    m["polytope.calls"] = count(poly)
    m["polytope.ms"] = total(duration, poly)

    lower = is_name("credal.CredalSet.lower_expectation")
    m["credal.lower_expectation.calls"] = count(lower)
    m["credal.lower_expectation_ms"] = total(duration, lower)
    on_lp_route = is_name("credal.CredalSet.lower_expectation", of=parent_id) \
        & is_name("simplex.solve")
    m["credal.lp_route_frac"] = (count(on_lp_route) / count(lower)
                                 if count(lower) else 0.0)

    sweeps = is_name("chains.chain_forward", "chains.chain_reverse_rho",
                     "chains.hmm_forward_rho")
    m["chains.sweeps"] = count(sweeps)
    m["chains.steps"] = int(sum(attr_values(sweeps, "steps")))
    m["chains.self_ms"] = total(selft, module == "chains")

    decompose = module == "decompose"
    m["decompose.calls"] = count(decompose)
    m["decompose.self_ms"] = total(selft, decompose)
    cores = is_name("lp.lower_expectation_lp") & (parent_module == "decompose")
    m["decompose.lp_cores"] = count(cores)
    m["decompose.max_core_nodes"] = int(max(attr_values(cores, "nodes"),
                                            default=0))
    sub = is_name("network.sub_network")
    m["network.sub_network.calls"] = count(sub)
    m["network.sub_network_ms"] = total(duration, sub & top)
    graph = module == "graph"
    m["graph.calls"] = count(graph)
    m["graph.self_ms"] = total(selft, graph)

    builds = is_name("lp.GlobalPolytope.__init__", "lp.build_global_lp")
    m["lp.builds"] = count(builds)
    m["lp.assembly_ms"] = total(duration, builds)
    for key in ("vars", "rows", "nnz", "dense_mb"):
        m[f"lp.{key}_max"] = max(attr_values(builds, key), default=0)

    solves = is_name("simplex.solve") & ~is_name("simplex.solve", of=parent_id)
    m["simplex.solves"] = count(solves)
    m["simplex.solve_ms"] = total(duration, solves)
    statuses = attr_values(solves & (a["flag"] == OK), "status")
    m["simplex.not_optimal"] = (sum(s != "optimal" for s in statuses)
                                + count(solves & (a["flag"] == RAISED)))
    m["simplex.deadline_hits"] = count(solves & (a["flag"] == DEADLINE))

    bracket_names = ("conditioning.natural_conditional",
                     "conditioning.regular_conditional")
    m["conditioning.brackets"] = count(
        is_name(*bracket_names) & ~is_name(*bracket_names, of=parent_id))
    m["conditioning.rho_evals"] = count(
        is_name("conditioning.RhoEvaluator.rho"))
    m["conditioning.rho_per_bound"] = (
        m["conditioning.rho_evals"] / m["conditioning.brackets"]
        if m["conditioning.brackets"] else 0.0)
    m["conditioning.self_ms"] = total(selft, module == "conditioning")

    m["queries.run_query_ms"] = total(duration, is_name("queries.run_query"))
    return m
