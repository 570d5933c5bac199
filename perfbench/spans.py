"""Layer spans recorded from outside the package, and per-operation timings.

`Tracer.install()` wraps every public function of each jordanlab layer module,
plus the few methods that carry a layer's inner loop (`METHODS`), in a span.
A span opens when the call starts and closes when it returns or raises (for
a generator, around each resumption); its parent is the span open below it
on the stack.  Self time is the span's duration minus the time covered by its
child spans and by speed samples (speed.py).  Spans are folded into per-name
totals as they close, so memory stays flat however many calls run.

Callers bind names with `from .ellcurve import weil_pairing`, so the wrapper
replaces every module-level binding of the original object, not only the one
in the defining module.  Cached functions are wrapped outside their
`lru_cache`, so a cache hit still counts as a call.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time

from speed import REF_NOMINAL_S, probe

LAYERS = ("scalars", "finab", "gtable", "heisenberg", "ellcurve", "theta", "birgroup", "cli")

# (class, method, span label): methods that hold a layer's hot loop
METHODS = {
    "ellcurve": (("CurvePoint", "__add__", "add"), ("TrackedFunction", "divisor", "divisor")),
    "theta": (("ThetaStructure", "to_heisenberg", "to_heisenberg"),),
    "gtable": (
        ("GroupTable", "from_elements", "from_elements"),
        ("GroupTable", "abelian_subgroups", "abelian_subgroups"),
        ("GroupTable", "closure", "closure"),
    ),
}

# cli.main is the item itself, and time outside the spans below it counts as
# uncovered; is_prime runs on every FpElement construction, where a span would
# cost more than the cached call it wraps
SKIP = frozenset({"cli.main", "scalars.is_prime"})

# span -> ancestor: count this span's calls (or a generator's yields) made
# while the ancestor is open
UNDER = {
    "ellcurve.torsion_subgroup": "ellcurve.iter_admissible_curves",
    "ellcurve.iter_admissible_curves": "theta.find_theta_curve",
}

CACHES = (
    "ellcurve.enumerate_points",
    "ellcurve.torsion_subgroup",
    "ellcurve._sqrt_table",
    "heisenberg.group_table",
    "scalars.mu_generator",
)

# per-name counters, indexed by these slots
CALLS, SELF_S, OPEN, ERRORS, YIELDS, UNDER_N = range(6)


class Tracer:
    """Per-span-name totals: calls, self time, errors, yields and calls under an ancestor."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.originals: dict[str, object] = {}
        self._root = [0.0]  # time covered by top-level spans
        self._stack = [self._root]
        self._paused = [0.0]  # time taken out of every open span by `pause`

    def pause(self, seconds: float) -> None:
        """Leave out of every open span time spent outside the package."""
        self._paused[0] += seconds

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0, 0, 0, 0])

    def _wrap(self, name: str, fn):
        st = self._stat(name)
        ancestor = self._stat(UNDER[name]) if name in UNDER else None
        stack = self._stack
        paused = self._paused
        clock = time.monotonic

        if inspect.isgeneratorfunction(fn):
            def gen_span(*args, **kwargs):
                st[CALLS] += 1
                gen = fn(*args, **kwargs)
                while True:
                    st[OPEN] += 1
                    frame = [0.0]
                    stack.append(frame)
                    start, paused_at = clock(), paused[0]
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    except Exception:
                        st[ERRORS] += 1
                        raise
                    finally:
                        elapsed = clock() - start - (paused[0] - paused_at)
                        stack.pop()
                        st[OPEN] -= 1
                        st[SELF_S] += elapsed - frame[0]
                        stack[-1][0] += elapsed
                    st[YIELDS] += 1
                    if ancestor is not None and ancestor[OPEN]:
                        st[UNDER_N] += 1
                    yield value

            return gen_span

        def span(*args, **kwargs):
            st[CALLS] += 1
            if ancestor is not None and ancestor[OPEN]:
                st[UNDER_N] += 1
            st[OPEN] += 1
            frame = [0.0]
            stack.append(frame)
            start, paused_at = clock(), paused[0]
            try:
                return fn(*args, **kwargs)
            except Exception:
                st[ERRORS] += 1
                raise
            finally:
                elapsed = clock() - start - (paused[0] - paused_at)
                stack.pop()
                st[OPEN] -= 1
                st[SELF_S] += elapsed - frame[0]
                stack[-1][0] += elapsed

        return span

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"jordanlab.{layer}")
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or name in SKIP):
                    continue
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
            for cls_name, method, label in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{label}"
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(name, raw))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "jordanlab" and not mod_name.startswith("jordanlab."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def report(self) -> dict:
        caches = {}
        for name in CACHES:
            layer, attr = name.split(".")
            fn = self.originals.get(name) or getattr(sys.modules[f"jordanlab.{layer}"], attr)
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "spans": {
                name: {"calls": st[CALLS], "self_s": st[SELF_S], "errors": st[ERRORS],
                       "yields": st[YIELDS], "under": st[UNDER_N]}
                for name, st in self.stats.items()
            },
            "covered_s": self._root[0],
            "caches": caches,
            "structures": len(sys.modules["jordanlab.theta"]._STRUCTURES),
        }


def _time_op(op, calls: int, repeats: int = 7) -> float:
    """Median microseconds per call of `op()` after a warm-up, at reference speed."""
    for _ in range(3):
        op()
    samples = []
    for _ in range(repeats):
        scale = REF_NOMINAL_S / probe()
        start = time.monotonic()
        for _ in range(calls):
            op()
        samples.append((time.monotonic() - start) / calls * scale)
    return statistics.median(samples) * 1e6


def per_op() -> dict[str, float]:
    """Single operations at fixed inputs: N = 6 for the abstract layer, points of
    43:0:1 for addition, level 3 on 13:7:0 for theta_mul and the Weil pairing."""
    from jordanlab.ellcurve import Curve, enumerate_points, weil_pairing
    from jordanlab.finab import FinAbGroup, pairing
    from jordanlab.heisenberg import elements
    from jordanlab.scalars import FpElement, RootOfUnity
    from jordanlab.theta import theta_mul, theta_structure

    x, y = FpElement(43, 17), FpElement(43, 29)
    u, v = RootOfUnity(6, 1), RootOfUnity(6, 5)
    group = FinAbGroup((6,))
    h = group.h_elements()
    g1 = elements(group)
    curve = Curve.make(43, 0, 1)
    pts = enumerate_points(curve)
    p_add, q_add = pts[3], pts[10]
    structure = theta_structure(Curve.make(13, 7, 0), 3)
    p1, p2 = structure.basis
    mu = structure.mu_elements()
    return {
        "scalars.FpElement.mul_us": _time_op(lambda: x * y, 20000),
        "scalars.RootOfUnity.mul_us": _time_op(lambda: u * v, 20000),
        "finab.pairing_us": _time_op(lambda: pairing(h[7], h[23]), 4000),
        "heisenberg.HeisElement.mul_us": _time_op(lambda: g1[5] * g1[100], 2000),
        "ellcurve.CurvePoint.add_us": _time_op(lambda: p_add + q_add, 1500),
        "ellcurve.weil_pairing_us": _time_op(lambda: weil_pairing(p1, p2, 3), 30),
        "theta.theta_mul_us": _time_op(lambda: theta_mul(mu[4], mu[17]), 60),
    }
