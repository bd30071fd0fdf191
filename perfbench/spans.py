"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces every module binding of each public ttsketch function
with a timing wrapper, and puts the original objects back on exit.  A name
bound in several modules (``sketch_matvec`` in ``contract``, ``eigensolver``
and the package namespace) is patched in all of them, so a call is timed
whichever binding the caller used.

Layer spans nest: a span's self time is its duration minus the durations of
the layer spans it encloses, so the self times of all layer spans add up to
the traced wall time less the harness's own gaps.  ``numpy.einsum`` and the
``numpy.linalg`` routines are timed as a separate overlay: their time stays
inside the self time of the layer span that called them, and their own
figures show how much of that self time was kernel rather than Python.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "ttsketch"
LAYERS = ("tt", "sketch", "contract", "rounding", "analysis", "eigensolver", "qtt", "cli")
NUMPY_LINALG = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "norm", "pinv", "qr", "slogdet", "solve", "svd",
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    keys: Counter = field(default_factory=Counter)


def package_modules():
    """The imported modules of ttsketch, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def layer_functions():
    """{span name: function} for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out["%s.%s" % (layer, name)] = obj
    return out


class Tracer:
    """Installs span wrappers on enter and removes them on exit.

    ``recorders`` maps a span name to a function of (args, kwargs, result)
    whose hashable return value is tallied in that span's ``keys``; shape
    keys feed the flop model, and result keys record counters such as the
    eigensolver's restart count.
    """

    def __init__(self, recorders=None):
        self.recorders = dict(recorders or {})
        self.stats = {}
        self._stack = []
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy

        wrappers = {}
        for name, fn in layer_functions().items():
            wrappers[id(fn)] = (fn, self._layer_wrapper(name, fn))
        for mod in package_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        self._patch(numpy, "einsum", self._kernel_wrapper("numpy.einsum", numpy.einsum))
        for attr in NUMPY_LINALG:
            self._patch(numpy.linalg, attr,
                        self._kernel_wrapper("numpy.linalg", getattr(numpy.linalg, attr)))

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _patch(self, mod, attr, wrapper):
        self._patches.append((mod, attr, vars(mod)[attr]))
        setattr(mod, attr, wrapper)

    def _layer_wrapper(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        record = self.recorders.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                children = stack.pop()
                stats.calls += 1
                stats.total_s += t1 - t0
                stats.self_s += t1 - t0 - children
                if ok and record is not None:
                    stats.keys[record(args, kwargs, result)] += 1
                if stack:
                    # The parent's children include this span's bookkeeping,
                    # so the bookkeeping lands in no span's self time.
                    stack[-1] += perf() - t0

        span.__perfbench_span__ = name
        return span

    def _kernel_wrapper(self, name, fn):
        stats = self.stats.setdefault(name, SpanStats())
        perf = time.perf_counter

        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt

        kernel.__perfbench_span__ = name
        return kernel


def installed_wrappers():
    """(module name, attribute) of every span wrapper currently bound."""
    import numpy

    found = []
    for mod in package_modules() + [numpy, numpy.linalg]:
        for attr, val in list(vars(mod).items()):
            if getattr(val, "__perfbench_span__", None) is not None:
                found.append((mod.__name__, attr))
    return found
