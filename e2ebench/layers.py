"""Per-layer host tracing from outside the program.

The traced run wraps the function objects the program calls at each layer
boundary and records one span per call: layer, start, end, parent span and
the request id where a :class:`repro.serve.Request` is in scope.  Nothing is
changed inside ``repro``: :class:`LayerTracer` swaps a wrapper into every
place the original object is bound (the defining module, every module that
imported it by name, or the class that owns a method) and puts the original
back on :meth:`LayerTracer.uninstall`.

A layer's *self time* is the time its spans cover minus the time their direct
child spans cover, so self times of all layers plus the root span's own self
time (``trace.unattributed_ms``) add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is a module path (``repro.serve.cache``) or a module path plus
    class name (``repro.serve.cache:ServeCache``); ``layer`` names the span
    category; ``count`` maps the call's arguments to a dict of per-call
    counters; ``span=False`` records counters only, for calls too
    frequent or too small to time (simulated kernel launches).
    """

    owner: str
    attr: str
    layer: str
    count: object = None
    span: bool = True
    #: name the span after ``self.name`` (one layer per roster algorithm)
    by_instance_name: bool = False
    #: the call's first argument is a Request whose rid the span carries
    request_arg: bool = False


def _nbytes(args, kwargs):
    return {"bytes": int(getattr(args[0], "nbytes", 0))}


def _elems(args, kwargs):
    return {"elems": int(getattr(args[0], "size", 0))}


def _rows(args, kwargs):
    data = args[0] if args else kwargs.get("data")
    shape = getattr(data, "shape", ())
    return {"rows": int(shape[0]) if len(shape) == 2 else 1}


def _candidates(args, kwargs):
    partials = args[0] if args else kwargs.get("partials", ())
    return {"candidates": int(sum(p[0].size for p in partials))}


def _counters_bytes(device) -> float:
    c = device.counters
    return float(c.bytes_read + c.bytes_written + c.h2d_bytes + c.d2h_bytes)


#: every layer boundary the traced run wraps, named by the repro module
TARGETS = (
    Target("repro.serve.cache", "fingerprint", "cache.fingerprint", _nbytes),
    Target("repro.serve.cache:ServeCache", "get_result", "cache.lookup"),
    Target("repro.serve.cache:ServeCache", "put_result", "cache.lookup"),
    Target("repro.serve.cache:ServeCache", "make_plan", "cache.lookup"),
    Target("repro.primitives.radix", "encode", "radix.encode", _elems),
    Target("repro.api", "topk", "api.topk", _rows),
    Target(
        "repro.algos.base:TopKAlgorithm", "select", "algos", by_instance_name=True
    ),
    Target("repro.serve.sharder", "sharded_topk", "sharder"),
    Target("repro.serve.merge", "hierarchical_merge", "merge", _candidates),
    Target("repro.serve.service:TopKService", "run", "service"),
    Target("repro.serve.service:TopKService", "submit", "service", request_arg=True),
    *(
        Target("repro.obs.serve:ServeTelemetry", hook, "obs.telemetry")
        for hook in (
            "on_outcome",
            "on_queue_depth",
            "on_batch",
            "on_cache_lookup",
            "on_fault",
            "on_retry",
            "on_hedge",
            "on_breaker",
            "on_adaptation",
        )
    ),
    Target("repro.cluster.router:ClusterRouter", "run", "router"),
    Target("repro.cluster.node:ClusterNode", "run", "router"),
    Target("repro.perf.costmodel", "rank_algorithms", "costmodel.rank"),
    Target("repro.datagen.distributions", "generate", "datagen"),
    Target("repro.exec.worker", "execute_point", "exec"),
    Target("repro.bench.runner", "run_point", "exec.attempt", span=False),
    Target("repro.device.device:Device", "launch_kernel", "device", span=False),
    Target("repro.device.device:Device", "_memcpy", "device", span=False),
)


def resolve(target: Target):
    """``(namespace, original)`` where ``namespace`` is a module or class."""
    module_path, _, cls_name = target.owner.partition(":")
    namespace = importlib.import_module(module_path)
    if cls_name:
        namespace = getattr(namespace, cls_name)
        return namespace, namespace.__dict__[target.attr]
    return namespace, getattr(namespace, target.attr)


def _repro_globals():
    """``(module, attr, value)`` for every global of every loaded ``repro``
    module."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                yield module, attr, value


def bindings(original) -> list[tuple[object, str]]:
    """Every ``(module, attr)`` of a loaded ``repro`` module bound to
    ``original`` — the defining module and each ``from x import f`` copy."""
    return [(m, attr) for m, attr, value in _repro_globals() if value is original]


@dataclass
class Span:
    layer: str
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    rid: object = None
    child_ns: int = 0


@dataclass
class LayerTracer:
    """Records spans and counters around the wrapped layer boundaries."""

    spans: list = field(default_factory=list)
    #: ``{layer: {counter: total}}`` — always includes ``calls``
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _wrappers: dict = field(default_factory=dict)

    # -- recording ------------------------------------------------------- #
    def _open(self, layer: str, name: str, rid=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent].rid
        self.spans.append(
            Span(layer, name, time.perf_counter_ns(), parent=parent, rid=rid)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.end_ns - span.start_ns

    def _count(self, layer: str, amounts: dict) -> None:
        totals = self.counts.setdefault(layer, {"calls": 0})
        totals["calls"] += 1
        for key, value in amounts.items():
            totals[key] = totals.get(key, 0) + value

    @contextlib.contextmanager
    def root(self, name: str):
        """The span that covers one traced rep; its self time is the
        rep's unattributed host time."""
        index = self._open("trace.root", name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, target: Target, original):
        tracer = self
        label = target.attr

        if target.layer == "device":
            # simulated traffic is read off the device's own counters
            @functools.wraps(original)
            def counted_device(device, *args, **kwargs):
                before = _counters_bytes(device)
                result = original(device, *args, **kwargs)
                launches = 1 if label == "launch_kernel" else 0
                tracer._count(
                    "device",
                    {"launches": launches, "bytes": _counters_bytes(device) - before},
                )
                return result

            return counted_device

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            layer = target.layer
            if target.by_instance_name:
                layer = f"{layer}.{args[0].name}"
            tracer._count(
                layer, target.count(args, kwargs) if target.count else {}
            )
            if not target.span:
                return original(*args, **kwargs)
            rid = getattr(args[1], "rid", None) if target.request_arg else None
            index = tracer._open(layer, label, rid)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    # -- install / uninstall --------------------------------------------- #
    def install(self) -> None:
        """Swap a wrapper into every binding of every target."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            namespace, original = resolve(target)
            wrapper = self._wrap(target, original)
            self._wrappers[id(wrapper)] = (wrapper, original)
            places = (
                [(namespace, target.attr)]
                if isinstance(namespace, type)
                else bindings(original)
            )
            for owner, attr in places:
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, including copies of a wrapper that a
        module imported by name while the tracer was installed."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        for module, attr, value in _repro_globals():
            wrapped = self._wrappers.get(id(value))
            if wrapped is not None and wrapped[0] is value:
                setattr(module, attr, wrapped[1])
        self._wrappers.clear()

    # -- reading --------------------------------------------------------- #
    def self_ms(self) -> dict[str, float]:
        """``{layer: self milliseconds}`` over all closed spans."""
        totals: dict[str, float] = {}
        for span in self.spans:
            own = (span.end_ns - span.start_ns - span.child_ns) / 1e6
            totals[span.layer] = totals.get(span.layer, 0.0) + own
        return totals

    def total_ms(self, layer: str) -> float:
        """Inclusive milliseconds of a layer's outermost spans."""
        total = 0
        for span in self.spans:
            if span.layer != layer:
                continue
            if span.parent >= 0 and self.spans[span.parent].layer == layer:
                continue
            total += span.end_ns - span.start_ns
        return total / 1e6

    def counter(self, layer: str, key: str = "calls") -> float:
        return self.counts.get(layer, {}).get(key, 0)

    def trace_events(self, meta: dict) -> dict:
        """The spans as Trace Event JSON (loadable in Perfetto)."""
        base = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": "benchmark host thread"},
            }
        ]
        for index, span in enumerate(self.spans):
            args = {"id": index, "parent": span.parent}
            if span.rid is not None:
                args["rid"] = span.rid
            events.append(
                {
                    "name": f"{span.layer}:{span.name}",
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start_ns - base) / 1e3,
                    "dur": (span.end_ns - span.start_ns) / 1e3,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}

    def write_trace(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(self.trace_events(meta), fh)
