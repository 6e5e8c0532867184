"""Per-layer counters for orb2d, taken by wrapping its public functions.

Each layer function in :data:`LAYERS` is replaced by a wrapper that counts
calls and measures self time: the call's duration minus the time spent in
wrapped functions it called.  orb2d's modules import each other's names
with ``from .x import y``, so a wrapper is installed under every name in
every ``orb2d`` module that refers to the original, and removed again by
:meth:`Tracer.uninstall`.  Counters are kept as totals in memory; spans
are not stored one by one, since a catalog run makes millions of calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = (
    "signature.parse_signature",
    "signature.format_signature",
    "signature.orbifold_euler",
    "reduce.reduce_final",
    "reduce.reduce_to_closed",
    "classify.classify",
    "classify.theorem_check",
    "classify.Classification.to_record",
    "group.presentation_of_closed",
    "group.smith_normal_form",
    "group.abelianization",
    "group.group_order_if_finite",
    "cover.manifold_cover_search",
    "cover.search_at_degree",
    "cover.degree_schedule",
    "cover.verify_witness",
    "catalog.enumerate_signatures",
    "catalog.catalog_records",
    "cli.main",
)

# Counters beyond calls and self time, updated by the wrappers below.
EXTRA_COUNTERS = (
    "group.smith_normal_form.max_cells",
    "cover.search_at_degree.found",
    "catalog.enumerate_signatures.yielded",
)


class Tracer:
    """Totals per layer: ``<layer>.calls``, ``<layer>.self_s`` and extras."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def add(self, counts: dict[str, float]) -> None:
        """Fold in totals taken elsewhere (a traced child process)."""
        for name, value in counts.items():
            if name.endswith(".max_cells"):
                self.totals[name] = max(self.totals.get(name, 0), value)
            else:
                self.totals[name] = self.totals.get(name, 0) + value

    def install(self) -> None:
        modules = [importlib.import_module("orb2d." + name.split(".")[0]) for name in LAYERS]
        namespaces = [m for name, m in sys.modules.items() if name == "orb2d" or name.startswith("orb2d.")]
        for layer, module in zip(LAYERS, modules):
            owner_path, attr = layer.split(".")[1:-1], layer.split(".")[-1]
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            self._patch(owner, attr, original, wrapper)
            if owner is module:
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is original and (namespace, name) != (owner, attr):
                            self._patch(namespace, name, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _account(self, layer: str, elapsed: float, child: float) -> None:
        totals = self.totals
        totals[layer + ".self_s"] = totals.get(layer + ".self_s", 0.0) + elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _count(self, name: str) -> None:
        self.totals[name] = self.totals.get(name, 0) + 1

    def _wrap(self, layer: str, original):
        stack = self._stack
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                self._count(layer + ".calls")
                iterator = original(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._account(layer, perf_counter() - start, stack.pop())
                    self._count(layer + ".yielded")
                    yield item

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._count(layer + ".calls")
            if layer == "group.smith_normal_form":
                cells = args[0].rows * args[0].cols
                self.totals[layer + ".max_cells"] = max(self.totals.get(layer + ".max_cells", 0), cells)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._account(layer, perf_counter() - start, stack.pop())
            if layer == "cover.search_at_degree" and result is not None:
                self._count(layer + ".found")
            return result

        return wrapper
