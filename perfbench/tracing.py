"""Span recording around the public functions of speclab's layers.

`install` replaces each public function of a layer with a recording wrapper
in every layer module's namespace, so a call is caught where the calling
module looks the name up (`speclab.models.operator_norm`,
`speclab.hankel.hankel_truncation`, `spinrep.wigner_d_sum` from validate,
`speclab.cli.cmd_norms` via the parser defaults).  Spans stay in memory as
(name, start, end, parent) and are aggregated or written out after the
sweep.  Nothing in speclab is edited.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import types

LAYERS = ("linalg", "spinrep", "hankel", "models", "specfun", "validate", "cli")

# Scalar helpers called once per matrix entry (N^2 times per Hankel truncation
# at a != 0).  A span each would cost more than the work it times and hold
# millions of spans; their time stays in the caller's self time.
PER_ENTRY = frozenset({
    "hankel.fourier_coeff",
    "spinrep.weight_exceeds",
    "spinrep.weight_at_most",
    "models.grid_in_arc",
})

# Builders whose busy and self time are reported by name, with zeros where a
# workload never calls them.
BUILDERS = (
    "su2_commutator",
    "su2_caps_commutator",
    "ring_commutator",
    "ring_commutator_shifted",
    "heisenberg_commutator",
    "heisenberg_commutator_shifted",
    "se2_commutator",
)


class Tracer:
    """In-memory span store with the `linalg.operator_norm` element count."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.norm_elems = 0

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        clock = time.perf_counter
        counts_elems = name == "linalg.operator_norm"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_elems:
                self.norm_elems += math.prod(getattr(args[0], "shape", ()))
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def spans(self, origin: float) -> list[list]:
        """Spans as [name, start, end, parent index], times relative to origin."""
        return [[n, round(s - origin, 7), round(e - origin, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive time of the outermost span
        when a name nests in itself) and self time (busy minus child spans)."""
        count = len(self.names)
        child = [0.0] * count
        for i in range(count):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            if not self._nested_in(i, lambda n: n == name):
                agg["busy_s"] += dur
        specfun = {"calls": 0, "busy_s": 0.0}
        for i, name in enumerate(self.names):
            if name.startswith("specfun."):
                specfun["calls"] += 1
                if not self._nested_in(i, lambda n: n.startswith("specfun.")):
                    specfun["busy_s"] += self.ends[i] - self.starts[i]
        out["specfun"] = specfun
        return out

    def _nested_in(self, i: int, match) -> bool:
        p = self.parents[i]
        while p >= 0:
            if match(self.names[p]):
                return True
            p = self.parents[p]
        return False


def install(tracer: Tracer) -> None:
    """Wrap every public layer function in every layer namespace."""
    for layer in LAYERS:
        module = importlib.import_module(f"speclab.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            owner = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("speclab.") or owner not in LAYERS:
                continue
            name = f"{owner}.{obj.__name__}"
            if name in PER_ENTRY:
                continue
            setattr(module, attr, tracer.wrap(name, obj))


def layer_metrics(agg: dict, norm_elems: int, jx_cache) -> dict[str, float]:
    """The per-layer metrics of one traced sweep (trace.overhead_frac is
    added by the runner, which sees both traced and untraced sweeps)."""

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    m = {
        "linalg.operator_norm.calls": get("linalg.operator_norm", "calls"),
        "linalg.operator_norm.busy_s": get("linalg.operator_norm", "busy_s"),
        "linalg.operator_norm.elems": norm_elems,
        "linalg.commutator.calls": get("linalg.commutator", "calls"),
        "linalg.commutator.busy_s": get("linalg.commutator", "busy_s"),
        "linalg.tridiag_eigh.calls": get("linalg.tridiag_eigh", "calls"),
        "linalg.tridiag_eigh.busy_s": get("linalg.tridiag_eigh", "busy_s"),
        "spinrep.jx_cache.hits": jx_cache.hits,
        "spinrep.jx_cache.misses": jx_cache.misses,
        "spinrep.projection_x.calls": get("spinrep.projection_x", "calls"),
        "spinrep.projection_x.busy_s": get("spinrep.projection_x", "busy_s"),
        "spinrep.projection_x.self_s": get("spinrep.projection_x", "self_s"),
        "spinrep.projection_z_interval.busy_s": get("spinrep.projection_z_interval", "busy_s"),
        "spinrep.wigner_d_sum.calls": get("spinrep.wigner_d_sum", "calls"),
        "spinrep.wigner_d_sum.busy_s": get("spinrep.wigner_d_sum", "busy_s"),
        "spinrep.wigner_d_theta.calls": get("spinrep.wigner_d_theta", "calls"),
        "spinrep.wigner_d_theta.busy_s": get("spinrep.wigner_d_theta", "busy_s"),
        "hankel.hankel_truncation.calls": get("hankel.hankel_truncation", "calls"),
        "hankel.hankel_truncation.busy_s": get("hankel.hankel_truncation", "busy_s"),
        "hankel.truncated_norm.self_s": get("hankel.truncated_norm", "self_s"),
    }
    for builder in BUILDERS:
        m[f"models.{builder}.busy_s"] = get(f"models.{builder}", "busy_s")
        m[f"models.{builder}.self_s"] = get(f"models.{builder}", "self_s")
    m["specfun.calls"] = agg["specfun"]["calls"]
    m["specfun.busy_s"] = agg["specfun"]["busy_s"]
    m["validate.run_validation.busy_s"] = get("validate.run_validation", "busy_s")
    m["validate.run_validation.self_s"] = get("validate.run_validation", "self_s")
    m["cli.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith("cli."))
    return m
