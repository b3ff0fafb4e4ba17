"""Per-layer spans and counts, recorded by wrapping padic_mub from outside.

The layers are the package's modules.  ``Tracer.install`` discovers, in each
layer module, the public functions, the public methods of public classes and
their arithmetic dunders, and replaces each with a wrapper.  Every module of
the package that imported one of those functions by name is patched too, so
calls between modules cross a wrapper.  Nothing under src/ changes, and
``uninstall`` puts every original back.

A span opens when a call enters a layer from another layer (or from the
benchmark); calls that stay inside the layer are counted but open no span.  A
layer's self time is its span time minus the time covered by its child
spans in other layers.  Public callables that cannot be wrapped are listed
in ``unwrapped``, together with any counted name that no longer exists, so
that a rename shows up instead of silently zeroing a count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "padic_mub"
LAYERS = ("cli", "sweeps", "gauss", "finite_field", "mub_finite", "mub_padic",
          "characters", "padic")

ARITHMETIC_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
    "__neg__", "__pos__", "__abs__", "__invert__", "__matmul__",
})

# Arithmetic and trace calls, counted on every call, nested ones included.
OP_COUNTERS = {
    "finite_field.elem_ops": [
        "finite_field.FieldElem.__add__", "finite_field.FieldElem.__sub__",
        "finite_field.FieldElem.__neg__", "finite_field.FieldElem.__mul__",
        "finite_field.FieldElem.__pow__", "finite_field.FieldElem.__truediv__",
        "finite_field.FieldElem.inv", "finite_field.FieldElem.trace", "finite_field.trace",
    ],
    "padic.elem_ops": [
        "padic.PadicNumber.__add__", "padic.PadicNumber.__sub__",
        "padic.PadicNumber.__neg__", "padic.PadicNumber.__mul__",
        "padic.PadicNumber.inv", "padic.PadicNumber.norm", "padic.norm_p",
    ],
}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _terms_ring(fn, args, kwargs, result) -> int:
    a = _bound(fn, args, kwargs)
    return a["p"] ** a["k"]


def _terms_table(fn, args, kwargs, result) -> int:
    a = _bound(fn, args, kwargs)
    return a["p"] ** (3 * a["l"])


def _terms_field(fn, args, kwargs, result) -> int:
    return _bound(fn, args, kwargs)["alpha"].ctx.size


def _basis_pairs(fn, args, kwargs, result) -> int:
    n = len(_bound(fn, args, kwargs)["bases"])
    return n * (n - 1) // 2


def _gram_vectors(fn, args, kwargs, result) -> int:
    return len(_bound(fn, args, kwargs)["params"])


def _sweep_checks(fn, args, kwargs, result) -> int:
    # a sweep's grid, not its arguments, fixes how many checks it makes
    return result.get("checks", result.get("n_commutation", 0) + result.get("n_eigen", 0))


# Problem-size counts read from the arguments (or report) of a successful call.
WORK_COUNTERS = {
    "gauss.ring_sum_numeric": ("gauss.terms", _terms_ring),
    "gauss.ring_sum_numeric_table": ("gauss.terms", _terms_table),
    "gauss.field_sum_numeric": ("gauss.terms", _terms_field),
    "mub_finite.verify_mub": ("mub_finite.basis_pairs", _basis_pairs),
    "mub_padic.gram_report": ("mub_padic.gram_vectors", _gram_vectors),
    "sweeps.sweep_gauss_grid": ("sweeps.checks", _sweep_checks),
    "sweeps.sweep_thresholds": ("sweeps.checks", _sweep_checks),
    "sweeps.sweep_operators": ("sweeps.checks", _sweep_checks),
}

COUNTERS = ("gauss.terms", "finite_field.elem_ops", "padic.elem_ops",
            "characters.phase_ops", "mub_finite.basis_pairs", "mub_padic.cells",
            "mub_padic.gram_vectors", "sweeps.checks")


class Tracer:
    """Wraps the layer modules of the imported padic_mub package."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        mub_padic = self.modules["mub_padic"]
        self._cell_types = (mub_padic.Grid, mub_padic.StateVector)
        # PrecisionError, ResolutionError and OddPrimeError are ValueErrors
        self._errors = (ValueError, importlib.import_module(f"{PACKAGE}.errors").CapError)
        self.roots_cache = getattr(self.modules["gauss"], "roots_of_unity", None)
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []
        self.unwrapped: list[str] = []
        self.counts: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        n = len(LAYERS)
        self.calls, self.errors = [0] * n, [0] * n
        self.self_s = [0.0] * n
        self.counts.update(dict.fromkeys(COUNTERS, 0))  # in place: wrappers hold it
        self.current, self.child = -1, 0.0

    # -- discovery and patching ------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, function, rewrap) per wrappable callable."""
        for layer, mod in self.modules.items():
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self.unwrapped.append(f"{layer}.{name} (class constructor)")
                    yield from self._method_targets(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    yield f"{layer}.{name}", mod, name, obj, None
                elif callable(obj):
                    self.unwrapped.append(f"{layer}.{name}")

    def _method_targets(self, layer, cls):
        for name, attr in sorted(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC_DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                yield qual, cls, name, attr.__func__, type(attr)
            elif inspect.isfunction(attr):
                yield qual, cls, name, attr, None
            elif callable(attr):
                self.unwrapped.append(qual)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.wrapped, self.unwrapped = [], []
        originals = {}
        for qual, owner, name, fn, rewrap in list(self._targets()):
            wrapper = self._wrap(qual, fn)
            self._patch(owner, name, rewrap(wrapper) if rewrap else wrapper)
            if not isinstance(owner, type):
                originals[id(fn)] = (fn, wrapper)
            self.wrapped.append(qual)
        # names bound by `from .x import f` elsewhere in the package
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit and hit[0] is obj and getattr(mod, name) is obj:
                    self._patch(mod, name, hit[1])
        counted = {q for names in OP_COUNTERS.values() for q in names}
        counted |= set(WORK_COUNTERS) | {"gauss.roots_of_unity"}
        missing = sorted(counted - set(self.wrapped))
        self.unwrapped += [f"{q} (counted name not found)" for q in missing]
        for layer in LAYERS:
            if not any(q.startswith(layer + ".") for q in self.wrapped):
                self.unwrapped.append(f"{layer} (no public callable found)")

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        layer_name = qual.split(".", 1)[0]
        layer = LAYERS.index(layer_name)
        counters = [c for c, names in OP_COUNTERS.items() if qual in names]
        if layer_name == "characters":
            counters.append("characters.phase_ops")
        work = WORK_COUNTERS.get(qual)
        # grid size per call of a module-level function (methods would count
        # one grid once per cell they are asked about)
        counts_cells = layer_name == "mub_padic" and qual.count(".") == 1
        tracer, counts, cell_types = self, self.counts, self._cell_types

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for c in counters:
                counts[c] += 1
            if counts_cells:
                for x in (*args, *kwargs.values()):
                    if isinstance(x, cell_types):
                        grid = x if isinstance(x, cell_types[0]) else x.grid
                        counts["mub_padic.cells"] += grid.n
            if tracer.current == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._enter(layer, fn, args, kwargs)
            if work:
                counts[work[0]] += work[1](fn, args, kwargs, result)
            return result

        return wrapper

    def _enter(self, layer: int, fn, args, kwargs):
        parent, outer_child = self.current, self.child
        self.current, self.child = layer, 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._errors:
            self.errors[layer] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self.self_s[layer] += dt - self.child
            self.calls[layer] += 1
            self.current, self.child = parent, outer_child + dt
