"""Layer tracing applied to freestoch from outside the package.

Every public function of the six layer modules, and the few public
methods listed in METHODS, is replaced in every module namespace that
holds it by a wrapper.  A call whose caller runs in another layer opens a
span: its duration minus the spans it opens in turn is the callee layer's
self time.  A call inside the same layer only counts, so intra-layer
helpers stay cheap.  TIMERS add the inclusive time of the outermost call
into a named group of functions whichever layer calls them, and SIZES
add up a size of each returned value.

Spans are aggregated in memory as they close, per caller layer and callee
function, instead of being stored one by one: a single pass of the exact
engine crosses a layer boundary about a million times.

Nothing here depends on private names of the package except the optional
`_MOBIUS_CACHE`, which is read only if it exists.
"""

from __future__ import annotations

import functools
import numbers
import sys
import types
from time import perf_counter

PACKAGE = "freestoch"
LAYERS = ("partitions", "cumulants", "processes", "measures", "matrixsim", "cli")
BENCH = "bench"

METHODS = {
    "processes": (("ProcessSpec", "partition_cumulant"), ("ProcessSpec", "unit_cumulant")),
}

TIMERS = {
    "partitions.mobius": ("partitions.mobius",),
    "partitions.restrict": ("partitions.restrict",),
    "measures.limit": ("measures.limit_product_of_st", "measures.limit_expect_st"),
    "measures.finite": ("measures.expect_st", "measures.expect_pr",
                        "measures.expect_product_of_st"),
    "matrixsim.sum": ("matrixsim.pr_matrix", "matrixsim.st_matrix"),
    "matrixsim.derived": ("matrixsim.derived_increments",),
    "matrixsim.sample": ("matrixsim.sample_increments", "matrixsim.hermitian_gaussian"),
}


def array_bytes(value, _seen=None) -> int:
    """Bytes of every distinct numpy array reachable from a returned value."""
    seen = set() if _seen is None else _seen
    if id(value) in seen or value is None or isinstance(value, (str, bytes, numbers.Number)):
        return 0
    seen.add(id(value))
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(array_bytes(v, seen) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v, seen) for v in value)
    if hasattr(value, "__dict__"):
        return sum(array_bytes(v, seen) for v in vars(value).values())
    return 0


SIZES = {
    "partitions.enumerated": (len, ("partitions.enumerate_set_partitions",
                                    "partitions.enumerate_noncrossing",
                                    "partitions.coarsenings",
                                    "partitions.noncrossing_refinements")),
    "cumulants.subsets": (len, ("cumulants.nonempty_subsets",)),
    "matrixsim.increment_bytes": (array_bytes, ("matrixsim.sample_increments",
                                                "matrixsim.derived_increments")),
}


def cache_probe() -> dict[str, int]:
    """Hits, misses and entries of the partitions caches, found from outside.

    functools caches are found through `cache_info`; the Mobius memo is
    read only if the module still has one.
    """
    mod = sys.modules.get(f"{PACKAGE}.partitions")
    out = {"hits": 0, "misses": 0, "entries": 0}
    if mod is None:
        return out
    for obj in vars(mod).values():
        info = getattr(getattr(obj, "__wrapped_original__", obj), "cache_info", None)
        if callable(info):
            ci = info()
            out["hits"] += ci.hits
            out["misses"] += ci.misses
            out["entries"] += ci.currsize
    memo = getattr(mod, "_MOBIUS_CACHE", None)
    if memo is not None:
        out["entries"] += len(memo)
    return out


class Tracer:
    """Patches the imported layer modules; `install` and `uninstall` toggle it."""

    def __init__(self):
        # Only the layer modules already imported: tracing imports nothing.
        self.modules = {layer: sys.modules[f"{PACKAGE}.{layer}"]
                        for layer in LAYERS if f"{PACKAGE}.{layer}" in sys.modules}
        self.calls: dict[str, list[int]] = {}
        self.timers = {name: [0, 0.0] for name in TIMERS}
        self.sizes = {name: [0] for name in SIZES}
        self.edges: dict[tuple[str, str], list] = {}
        self.layer = BENCH
        self.frame = [0.0]
        self._wrappers = [(owner, name, original, self._wrap(original, layer, key))
                          for owner, name, original, layer, key in list(self._targets())]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute name, original, layer, key) for each public callable."""
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    yield mod, name, obj, layer, f"{layer}.{name}"
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                if cls is not None and isinstance(vars(cls).get(meth), types.FunctionType):
                    yield cls, meth, vars(cls)[meth], layer, f"{layer}.{meth}"

    def install(self) -> None:
        if self._patches:
            return
        holders = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for owner, name, original, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, layer: str, key: str):
        tr = self
        calls = tr.calls.setdefault(key, [0])
        timer = next((tr.timers[t] for t, keys in TIMERS.items() if key in keys), None)
        size = next(((tr.sizes[s], measure) for s, (measure, keys) in SIZES.items()
                     if key in keys), None)
        plain = timer is None and size is None

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if plain and tr.layer == layer:
                return fn(*args, **kwargs)
            boundary = tr.layer != layer
            if boundary:
                caller, parent, frame = tr.layer, tr.frame, [0.0]
                tr.layer, tr.frame = layer, frame
            outermost = timer is not None and timer[0] == 0
            if timer is not None:
                timer[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if timer is not None:
                    timer[0] -= 1
                    if outermost:
                        timer[1] += dt
                if boundary:
                    tr.layer, tr.frame = caller, parent
                    parent[0] += dt
                    edge = tr.edges.setdefault((caller, key), [0, 0.0, 0.0])
                    edge[0] += 1
                    edge[1] += dt
                    edge[2] += dt - frame[0]
            if size is not None:
                size[0][0] += size[1](result)
            return result

        functools.update_wrapper(wrapper, fn)
        wrapper.__wrapped_original__ = fn
        return wrapper

    # -- reading ----------------------------------------------------------

    def begin(self) -> None:
        """Start a traced stretch: the benchmark is the root span."""
        self.layer, self.frame = BENCH, [0.0]

    def inside_layers_s(self) -> float:
        """Time spent inside layer spans opened by the benchmark since begin()."""
        return self.frame[0]

    def snapshot(self) -> dict:
        """Cumulative counters; subtract two snapshots to get one stretch."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"], out[f"{layer}.self_s"] = 0, 0.0
        for (_, key), (n, _, own) in self.edges.items():
            layer = key.split(".")[0]
            out[f"{layer}.calls"] += n
            out[f"{layer}.self_s"] += own
        for name, (_, seconds) in self.timers.items():
            out[f"{name}_s"] = seconds
        for name, (total,) in self.sizes.items():
            out[name] = total
        for key in ("partitions.mobius", "partitions.restrict",
                    "processes.partition_cumulant"):
            out[f"{key}_calls"] = self.calls.get(key, [0])[0]
        out["matrixsim.trials"] = self.calls.get("matrixsim.trial_rng", [0])[0]
        return out

    def edge_table(self) -> dict:
        """Per (caller layer -> callee function): calls, inclusive and self seconds."""
        return {f"{caller}->{key}": {"calls": n, "incl_s": incl, "self_s": own}
                for (caller, key), (n, incl, own) in sorted(self.edges.items())}
