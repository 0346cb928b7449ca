"""Span recorder for the traced benchmark run.

Spans are recorded only at module boundaries, by wrapping the public
functions of glcoeff from outside the package: a wrapper is installed on
the defining module and on every glcoeff module that imported the same
function object by name.  Each span keeps its name, start, end and
parent span in compact in-memory arrays; nothing is written until the
process ends.  Self time is a span's duration minus the durations of its
direct children (spans nest, so children never overlap).

Pool workers are forked from a traced process: at fork the child drops
the spans it inherited, and when the worker process ends it writes its
own spans and aggregates to a file that the parent merges.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

import mpmath as mp

# (layer name, module, attribute); "Class.method" attributes wrap methods
LAYERS = (
    ("zeta.zeta_jet", "zeta", "zeta_jet"),
    ("zeta.gamma_jet", "zeta", "gamma_jet"),
    ("zeta.xi_jet", "zeta", "xi_jet"),
    ("zeta.ztilde_jet", "zeta", "ztilde_jet"),
    ("zeta.ztilde_s_jet", "zeta", "ztilde_s_jet"),
    ("zeta.z_s_local_jet", "zeta", "z_s_local_jet"),
    ("jets.mul", "jets", "Jet.__mul__"),
    ("jets.compose_linear", "jets", "compose_linear"),
    ("rootdata.pairing", "rootdata", "pairing"),
    ("rootdata.project", "rootdata", "project"),
    ("gmfamily.line_jet", "gmfamily", "SmoothGerm.line_jet"),
    ("gmfamily.symmetrized", "gmfamily", "symmetrized_value"),
    ("gmfamily.tilde_c", "gmfamily", "tilde_c"),
    ("gmfamily.c", "gmfamily", "c"),
    ("gmfamily.derivative", "gmfamily", "arthur_derivative_value"),
    ("gmfamily.certify", "gmfamily", "certify_direction"),
    ("gmfamily.direction", "gmfamily", "draw_generic_direction"),
    ("orbits.enumerate", "orbits", "enumerate_inducing_pairs"),
    ("coefficients.a_coefficient", "coefficients", "a_coefficient"),
    ("coefficients.a_tilde", "coefficients", "a_tilde"),
    ("coefficients.prolongation", "coefficients",
     "prolongation_identity_residuals"),
    ("coefficients.expansion", "coefficients", "expansion"),
    ("pool.task", "coefficients", "_term_worker"),
)

# jet entry points whose (arguments, precision) key is recorded, so the
# reuse a cache could give is seen from outside the package
KEYED = frozenset(("zeta.zeta_jet", "zeta.gamma_jet", "zeta.xi_jet",
                   "zeta.ztilde_jet", "zeta.ztilde_s_jet",
                   "zeta.z_s_local_jet"))


def mul_products(len_a: int, len_b: int, len_out: int) -> int:
    """Coefficient products a dense truncated product of these operand
    lengths implies: sum over i < len_a of max(0, min(len_b, len_out - i))."""
    full = max(0, min(len_a, len_out - len_b + 1))
    total = full * len_b
    lo, hi = max(full, 0), min(len_a, len_out)
    if hi > lo:
        # sum of (len_out - i) for i in [lo, hi)
        total += (hi - lo) * len_out - (hi - 1 + lo) * (hi - lo) // 2
    return total


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = [name for name, _, _ in LAYERS] + ["cli.main"]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.stack: list[list] = []
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.counters = {"jets.mul.coeff_products": 0, "orbits.pairs": 0}
        self.dump_registered = False

    def _reset(self):
        """Drop everything recorded, in place so that the installed
        wrappers keep their references (a forked worker starts empty)."""
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self.stack.clear()
        self.calls[:] = [0] * len(self.names)
        self.self_s[:] = [0.0] * len(self.names)
        for keys in self.keys.values():
            keys.clear()
        for key in self.counters:
            self.counters[key] = 0
        self.dump_registered = False

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, key_args: bool = False, on_result=None):
        idx = self.index[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(idx)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
            if key_args:
                self.keys[name].add((repr(args), repr(sorted(kwargs.items())),
                                     mp.mp.prec))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for _, mod_name, _ in LAYERS:
            importlib.import_module(f"glcoeff.{mod_name}")
        importlib.import_module("glcoeff.cli")
        modules = [m for n, m in sys.modules.items()
                   if n == "glcoeff" or n.startswith("glcoeff.")]
        hooks = {"jets.mul": self._count_mul,
                 "orbits.enumerate": self._count_pairs}
        for name, mod_name, attr in LAYERS:
            module = sys.modules[f"glcoeff.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.span(name, getattr(cls, meth),
                                             on_result=hooks.get(name)))
                continue
            original = getattr(module, attr)
            if name == "pool.task":
                wrapped = self._pool_task(original)
            else:
                wrapped = self.span(name, original, key_args=name in KEYED,
                                    on_result=hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        os.register_at_fork(after_in_child=self._reset)

    def _count_pairs(self, args, result) -> None:
        self.counters["orbits.pairs"] += len(result)

    def _count_mul(self, args, result) -> None:
        a, b = args
        self.counters["jets.mul.coeff_products"] += mul_products(
            len(a.coeffs), len(b.coeffs), len(result.coeffs))

    def _pool_task(self, fn):
        traced = self.span("pool.task", fn)

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if not self.dump_registered:
                from multiprocessing import util
                util.Finalize(None, self.dump_worker, exitpriority=10)
                self.dump_registered = True
            return traced(*args, **kwargs)

        return task

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "pid": os.getpid(),
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "keys": {name: sorted(map(repr, keys))
                     for name, keys in self.keys.items()},
            "counters": self.counters,
            "spans": len(self.span_start),
            "durations": {name: self.durations(name) for name in
                          ("pool.task", "coefficients.expansion", "cli.main")},
            "cpu_s": sum(os.times()[:2]),
        }

    def durations(self, name: str) -> list[float]:
        idx = self.index[name]
        return [self.span_end[i] - self.span_start[i]
                for i, n in enumerate(self.span_name) if n == idx]

    def write_spans(self, prefix: str) -> None:
        """Spans as four native-order arrays (name index, parent span,
        start, end) plus a JSON header naming them."""
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.span_start),
                       "arrays": ["name:int32", "parent:int32",
                                  "start_s:float64", "end_s:float64"]}, fh)

    def dump_worker(self) -> None:
        prefix = os.path.join(self.out_dir, f"worker-{os.getpid()}")
        self.write_spans(prefix + "-spans")
        with open(prefix + "-summary.json", "w") as fh:
            json.dump(self.summary(), fh)
