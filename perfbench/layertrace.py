"""Per-layer self time for one traced repetition, measured from outside.

The tracer wraps the public entry points of every layer module of the
``repro`` package at run time and keeps a stack of open spans.  A span's
self time is its duration minus the time its child spans (and the garbage
collections that ran inside it) cover, so summed over all spans the self
times telescope to the time the outermost spans cover.  What no span
covers inside a measurement window is reported as ``unattributed``, so by
construction

    sum(layer self) + gc pause + unattributed == window wall

and ``run.py`` checks instead that no part is negative and that the
unattributed share stays under a ceiling.

Entry points wrapped:

- every public method of every class defined in a layer module, and every
  public module-level function (rebound in every ``repro`` module that
  imported it by name);
- every scheduled event: ``repro.sim.engine.Event`` is replaced by a
  subclass whose callback is charged to the layer that defined it, so the
  engine's dispatch of a fabric delivery counts as ``net`` and a gossip
  timer as ``pss``;
- the fabric's per-instance compiled ``send`` (re-wrapped whenever the
  fabric recompiles it).

Only modules already imported when :meth:`LayerTracer.install` runs are
wrapped; ``workloads.py`` imports everything it drives first.  A call
into the layer that is already on top of the stack is passed through
without a span, so tracing cost lands on layer crossings only.
Nothing here changes what the program computes: the traced repetition
must reproduce the untraced digest, which ``run.py`` checks.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
from typing import Any, Callable

__all__ = ["LAYERS", "LayerTracer", "layer_of_module"]

# Module prefix -> layer, most specific first.  Modules outside this map
# (experiments, perf, parallel, the benchmark itself) are callers, not
# layers: they are never wrapped and their top-level time is unattributed.
_MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.core.wcl", "wcl"),
    ("repro.core.ppss", "ppss"),
    ("repro.harness.sharded", "shard"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.nat", "nat"),
    ("repro.pss", "pss"),
    ("repro.core", "core"),
    ("repro.crypto", "crypto"),
    ("repro.wire", "wire"),
    ("repro.telemetry", "telemetry"),
    ("repro.apps", "apps"),
    ("repro.workload", "workload"),
    ("repro.harness", "other"),
    ("repro.churn", "other"),
    ("repro.faults", "other"),
    ("repro.metrics", "other"),
    ("repro.adversary", "other"),
)

LAYERS: tuple[str, ...] = (
    "sim", "net", "nat", "pss", "core", "wcl", "ppss", "crypto", "wire",
    "telemetry", "apps", "workload", "shard", "other",
)

# Operations timed individually (qualified name -> op group).
_OPS: dict[str, str] = {
    "RealCryptoProvider.seal": "rsa",
    "RealCryptoProvider.open": "rsa",
    "RealCryptoProvider.sign": "rsa",
    "RealCryptoProvider.verify": "rsa",
    "SimCryptoProvider.seal": "rsa",
    "SimCryptoProvider.open": "rsa",
    "SimCryptoProvider.sign": "rsa",
    "SimCryptoProvider.verify": "rsa",
    "RealCryptoProvider.encrypt_payload": "layer",
    "RealCryptoProvider.decrypt_payload": "layer",
    "RealCryptoProvider.wrap_layers": "layer",
    "RealCryptoProvider.unwrap_layer": "layer",
    "SimCryptoProvider.encrypt_payload": "layer",
    "SimCryptoProvider.decrypt_payload": "layer",
    "SimCryptoProvider.wrap_layers": "layer",
    "SimCryptoProvider.unwrap_layer": "layer",
    "encode_message": "encode",
    "decode_message": "decode",
    "TChordNode.lookup": "lookup",
}


def layer_of_module(module: str | None) -> str | None:
    """The layer a ``repro`` module belongs to, or None for callers."""
    if not module:
        return None
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _target(callback: Any) -> Any:
    """The function behind a partial / bound method."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    return getattr(callback, "__func__", callback)


class LayerTracer:
    """Span stack + per-layer accumulators; see the module docstring."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.op_s: dict[str, float] = {}
        self.op_calls: dict[str, int] = {}
        self.cancelled = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._top_s = 0.0  # time covered by outermost spans
        self._gc_top_s = 0.0  # collections outside every span
        self._gc_started = 0.0
        # The open spans: their layers, and the seconds their children
        # covered.  Two flat lists, so a span allocates nothing the garbage
        # collector tracks.
        self._layers: list[str] = []
        self._children: list[float] = []
        self._event_layers: dict[Any, str] = {}
        self._window: dict[str, Any] | None = None
        self.windows: list[dict[str, Any]] = []
        self.installed = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _span(self, layer: str, op: str | None, fn: Callable, /, *args, **kwargs):
        layers = self._layers
        if layers and layers[-1] == layer and op is None:
            return fn(*args, **kwargs)
        children = self._children
        layers.append(layer)
        children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            layers.pop()
            self.self_s[layer] += duration - children.pop()
            self.calls[layer] += 1
            if layers:
                children[-1] += duration
            else:
                self._top_s += duration
            if op is not None:
                self.op_s[op] = self.op_s.get(op, 0.0) + duration
                self.op_calls[op] = self.op_calls.get(op, 0) + 1

    def wrap(self, fn: Callable, layer: str, op: str | None = None) -> Callable:
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(layer, op, fn, *args, **kwargs)

        traced.__perfbench_traced__ = True
        return traced

    def _gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        pause = now - self._gc_started
        self.gc_pause_s += pause
        self.gc_collections += 1
        if self._layers:
            self._children[-1] += pause
        else:
            self._gc_top_s += pause

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points; irreversible for the process."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        import repro  # noqa: F401 - the package must be importable first
        import repro.harness.sharded  # noqa: F401 - loaded by name below
        import repro.sim.engine as engine

        modules = [
            (name, module)
            for name, module in sorted(sys.modules.items())
            if module is not None and layer_of_module(name) is not None
        ]
        rebinds: dict[int, Callable] = {}
        for name, module in modules:
            layer = layer_of_module(name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == name:
                    self._wrap_class(value, layer)
                elif inspect.isfunction(value) and value.__module__ == name:
                    rebinds[id(value)] = self.wrap(value, layer, _OPS.get(attr))
        rebinds[id(engine.Event)] = self._traced_event_class(engine.Event)
        self._wrap_fabric()
        for name, module in sorted(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                replacement = rebinds.get(id(value))
                if replacement is not None:
                    namespace[attr] = replacement
        gc.callbacks.append(self._gc)

    def uninstall_gc(self) -> None:
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if getattr(value, "__perfbench_traced__", False):
                continue
            op = _OPS.get(f"{cls.__name__}.{attr}")
            setattr(cls, attr, self.wrap(value, layer, op))

    def _traced_event_class(self, base: type) -> type:
        tracer = self

        class TracedEvent(base):
            __slots__ = ()

            def __init__(self, time, priority, seq, callback, cancelled=False, sim=None):
                super().__init__(
                    time, priority, seq, tracer._dispatch(callback), cancelled, sim
                )

            def cancel(self) -> None:
                if not self.cancelled and not self._done:
                    tracer.cancelled += 1
                base.cancel(self)

        TracedEvent.__name__ = TracedEvent.__qualname__ = "Event"
        TracedEvent.__module__ = base.__module__
        return TracedEvent

    def _dispatch(self, callback: Callable) -> Callable:
        target = _target(callback)
        layer = self._event_layers.get(target)
        if layer is None:
            qualname = getattr(target, "__qualname__", "")
            if qualname.startswith("Network."):  # compiled fabric paths
                layer = "net"
            else:
                layer = layer_of_module(getattr(target, "__module__", None)) or "other"
            self._event_layers[target] = layer
        return functools.partial(self._span, layer, None, callback)

    def _wrap_fabric(self) -> None:
        from repro.net.network import Network

        recompile = Network._recompile
        wrap = self.wrap

        @functools.wraps(recompile)
        def traced_recompile(network: Network) -> None:
            recompile(network)
            network.send = wrap(network.send, "net")

        Network._recompile = traced_recompile

    # ------------------------------------------------------------------
    # measurement windows
    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open a window; spans must all be closed (top level)."""
        if self._layers or self._window is not None:
            raise RuntimeError("measurement window opened inside a span")
        self._window = {
            "self": dict(self.self_s), "calls": dict(self.calls),
            "ops": dict(self.op_s), "op_calls": dict(self.op_calls),
            "top": self._top_s, "gc_top": self._gc_top_s,
            "gc": self.gc_pause_s, "gcn": self.gc_collections,
            "cancelled": self.cancelled, "t0": time.perf_counter(),
        }

    def end(self) -> None:
        wall = time.perf_counter()
        base = self._window
        if base is None or self._layers:
            raise RuntimeError("measurement window closed inside a span")
        self._window = None
        self.windows.append({
            "wall": wall - base["t0"],
            "self": {k: v - base["self"][k] for k, v in self.self_s.items()},
            "calls": {k: v - base["calls"][k] for k, v in self.calls.items()},
            "ops": {k: v - base["ops"].get(k, 0.0) for k, v in self.op_s.items()},
            "op_calls": {
                k: v - base["op_calls"].get(k, 0) for k, v in self.op_calls.items()
            },
            "top": self._top_s - base["top"],
            "gc_top": self._gc_top_s - base["gc_top"],
            "gc": self.gc_pause_s - base["gc"],
            "gcn": self.gc_collections - base["gcn"],
            "cancelled": self.cancelled - base["cancelled"],
        })

    def report(self) -> dict[str, Any]:
        """Sum of all closed windows."""
        total: dict[str, Any] = {
            "wall": 0.0, "self": dict.fromkeys(LAYERS, 0.0),
            "calls": dict.fromkeys(LAYERS, 0), "ops": {}, "op_calls": {},
            "top": 0.0, "gc_top": 0.0, "gc": 0.0, "gcn": 0, "cancelled": 0,
        }
        for window in self.windows:
            for key in ("wall", "top", "gc_top", "gc", "gcn", "cancelled"):
                total[key] += window[key]
            for key in ("self", "calls", "ops", "op_calls"):
                for name, value in window[key].items():
                    total[key][name] = total[key].get(name, 0) + value
        total["unattributed"] = total["wall"] - total["top"] - total["gc_top"]
        return total
