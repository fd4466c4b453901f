"""Per-layer tracing from outside the library.

`Tracer` replaces the public functions of every quditstab module (and a few
named methods) by timing wrappers in every quditstab namespace that holds a
reference to them, and puts the originals back on `remove()`.  A wrapper
records calls and self time: its own duration minus the time of wrapped calls
made beneath it.  A few wrappers also count work (matrix cells, basis states)
and how often the same input comes back.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from typing import Callable

LAYERS = ("zmod", "symplectic", "pauli", "heisenberg", "stabilizer", "oracle", "kitaev", "cli")

# methods traced as well as the public module-level functions
METHODS = {"zmod": ("ZdMatrix.det",), "symplectic": ("SymplecticSpace.pairing",)}

_MARK = "__perfbench_wrapped__"


def _smith_work(args, kwargs):
    mat = args[0]
    return mat.rows * mat.cols, (mat.modulus, mat.entries)


def _represent_work(args, kwargs):
    p = args[0]
    return p.d**p.n, (p.d, p.phase, p.a, p.b)


# qualified name -> function(args, kwargs) -> (work units, key of the input)
WORK = {"zmod.smith_normal_form": _smith_work, "oracle.represent": _represent_work}


class Stat:
    __slots__ = ("calls", "self_s", "work", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0
        self.keys: set = set()

    @property
    def repeat_ratio(self) -> float:
        return self.calls / len(self.keys) if self.keys else 0.0


def _targets(package: str):
    """(qualified name, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{name}", mod, name, obj))
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            out.append((f"{layer}.{dotted}", cls, meth, cls.__dict__[meth]))
    return out


class Tracer:
    def __init__(self, package: str = "quditstab"):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.top_s = 0.0  # time covered by outermost wrapped calls
        self._stack: list[float] = []  # child-time accumulators of open calls
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(qualname, Stat())
        stack = self._stack
        work_of = WORK.get(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if work_of is not None:
                units, key = work_of(args, kwargs)
                stat.work += units
                stat.keys.add(key)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")]
        for qualname, owner, attr, original in _targets(self.package):
            wrapper = self._wrap(qualname, original)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_total(self) -> float:
        return math.fsum(s.self_s for s in self.stats.values())


def leftover_wrappers(package: str = "quditstab") -> list[str]:
    """Names in any quditstab namespace that still hold a tracing wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for name, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{modname}.{name}")
            if inspect.isclass(value) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{modname}.{name}.{attr}")
    return found
