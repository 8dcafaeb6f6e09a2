"""Span tracer that times the tscomplex layers from outside the package.

Each traced function is replaced by a wrapper in every loaded tscomplex
module that binds it: the module that defines it and every module that
imported it by name (``from .entropy import sample_entropy``). A call
through any binding is then one span. The tracer is single-threaded: spans
nest on one stack, and a span's self time is its duration minus the time
its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "tscomplex"


def _bound(sig: inspect.Signature, args: tuple, kwargs: dict) -> dict[str, Any]:
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Work counters: (bound arguments, returned value or None, raised exception
# or None) -> counts to add. They run after the span has ended, so their
# cost is not charged to the layer.

def _series_samples(a, result, exc):
    return {"samples": len(a["series"])}


def _sampen_work(a, result, exc):
    nt = len(a["series"]) - a["params"].m
    counts = {"samples": len(a["series"]), "pairs": max(nt, 0) * max(nt - 1, 0) // 2}
    if result is not None:
        counts["b_count"] = result.b_count
    elif getattr(exc, "b_count", None) is not None:
        counts["b_count"] = exc.b_count
    return counts


def _iid_work(a, result, exc):
    return {"samples": a["n"] + a["burn_in"]}


def _logistic_work(a, result, exc):
    return {"samples": a["total"]}


def _arma_work(a, result, exc):
    return {"samples": a["n"] + a["burn_in"]}


def _read_work(a, result, exc):
    f = a["file"]
    path = getattr(f, "path", f)
    return {"bytes": os.path.getsize(path) if os.path.isfile(path) else 0}


def _render_work(a, result, exc):
    return {"rows": len(a["report"].rows)}


BUILD_METRICS = "metrics.build_metrics"
# The metric closures that build_metrics returns are traced as one more
# layer: the per-call cost of the metrics module around the score functions.
EVALUATE = "metrics.evaluate"


@dataclass(frozen=True)
class Layer:
    """One traced function: its span name, where it is defined, and which
    work counts it records per call."""

    name: str
    module: str
    attr: str
    work: Callable | None = None
    counts: tuple[str, ...] = ()  # the work counts reported per pass


LAYERS: tuple[Layer, ...] = (
    Layer("cli.main", "tscomplex.cli", "main"),
    Layer("experiments.reproduce", "tscomplex.experiments", "reproduce"),
    Layer(BUILD_METRICS, "tscomplex.metrics", "build_metrics"),
    Layer("entropy.mse_sweep", "tscomplex.entropy", "mse_sweep"),
    Layer("entropy.sample_entropy", "tscomplex.entropy", "sample_entropy",
          _sampen_work, ("samples", "pairs")),
    Layer("entropy.permutation_entropy", "tscomplex.entropy", "permutation_entropy",
          _series_samples, ("samples",)),
    Layer("randomness.permutation_test", "tscomplex.randomness", "permutation_test",
          _series_samples, ("samples",)),
    Layer("randomness.runs_test", "tscomplex.randomness", "runs_test",
          _series_samples, ("samples",)),
    Layer("core.coarse_grain", "tscomplex.core", "coarse_grain",
          _series_samples, ("samples",)),
    Layer("generators.generate_iid", "tscomplex.generators", "generate_iid",
          _iid_work, ("samples",)),
    Layer("generators.logistic_map", "tscomplex.generators", "logistic_map",
          _logistic_work, ("samples",)),
    Layer("generators.arma_simulate", "tscomplex.generators", "arma_simulate",
          _arma_work, ("samples",)),
    Layer("generators.add_noise", "tscomplex.generators", "add_noise",
          _series_samples, ("samples",)),
    Layer("seriesio.read_series", "tscomplex.seriesio", "read_series",
          _read_work, ("bytes",)),
    Layer("report.render_report", "tscomplex.report", "render_report",
          _render_work, ("rows",)),
    Layer("plots.render_plot", "tscomplex.plots", "render_plot"),
)


class TraceError(RuntimeError):
    """The tracer could not cover every binding of a traced function."""


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Installs span wrappers into the loaded tscomplex modules and
    accumulates per-layer calls, self time and work counts."""

    def __init__(self):
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._sites: list[tuple[dict, str, Any]] = []  # (namespace, key, original)
        self._originals: dict[int, tuple[Layer, Callable]] = {}
        self.site_count = 0  # bindings wrapped by the last install()
        self.stats = {layer.name: LayerStats() for layer in LAYERS}
        self.stats[EVALUATE] = LayerStats()
        self.covered_s = 0.0  # time inside outermost spans

    # -- spans ---------------------------------------------------------

    def _span(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_s += duration
                st = self.stats[name]
                st.calls += 1
                st.self_s += duration - frame[1]
                if exc is not None:
                    st.errors += 1
                if work is not None:
                    for key, value in work(_bound(sig, args, kwargs), result, exc).items():
                        st.counts[key] = st.counts.get(key, 0) + value

        return wrapper

    def _wrap_metrics(self, build: Callable) -> Callable:
        span = self._span

        @functools.wraps(build)
        def build_metrics(*args, **kwargs):
            metrics = build(*args, **kwargs)
            return [type(m)(m.name, span(EVALUATE, m.evaluate, None)) for m in metrics]

        return build_metrics

    # -- installation --------------------------------------------------

    @staticmethod
    def _modules() -> list[Any]:
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every binding of every traced function; raise TraceError if
        a layer function is missing or a binding could not be wrapped."""
        if self._sites:
            raise TraceError("tracer already installed")
        self._originals = {}
        for layer in LAYERS:
            fn = getattr(sys.modules.get(layer.module), layer.attr, None)
            if not callable(fn):
                raise TraceError(f"{layer.name}: {layer.module}.{layer.attr} not found")
            self._originals[id(fn)] = (layer, fn)
        for mod in self._modules():
            namespaces = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    layer, fn = self._original(value)
                    if layer is None:
                        continue
                    target = self._wrap_metrics(fn) if layer.name == BUILD_METRICS else fn
                    namespace[key] = self._span(layer.name, target, layer.work)
                    self._sites.append((namespace, key, fn))
        left = self.unwrapped_sites()
        if left:
            self.uninstall()
            raise TraceError("unwrapped binding site(s): " + ", ".join(left))
        self.site_count = len(self._sites)

    def _original(self, value: Any) -> tuple[Layer | None, Callable | None]:
        hit = self._originals.get(id(value))
        if hit is None or hit[1] is not value:
            return None, None
        return hit

    def unwrapped_sites(self) -> list[str]:
        """Bindings in loaded tscomplex modules that still hold an original
        layer function: module attributes, module-level dict values, and
        list or tuple members, which cannot be rebound."""
        left = []
        for mod in self._modules():
            for key, value in vars(mod).items():
                if isinstance(value, dict):
                    members = list(value.values())
                elif isinstance(value, (list, tuple)):
                    members = list(value)
                else:
                    members = [value]
                for member in members:
                    layer, _ = self._original(member)
                    if layer is not None:
                        left.append(f"{mod.__name__}.{key} ({layer.name})")
        return left

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._sites):
            namespace[key] = fn
        self._sites = []
        self._originals = {}

    # -- results -------------------------------------------------------

    def self_total_s(self) -> float:
        return sum(st.self_s for st in self.stats.values())
