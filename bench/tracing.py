"""Span tracing of emconf's layers from outside the package.

`Tracer.install` wraps every public module-level function of the layer
modules at every module attribute that binds it (so `cl3_product` is traced
whether it is reached through `cl3`, `conformal3` or `bridge`), the field
classes' `faraday` methods, and each `verify.REGISTRY` entry.  A wrapped call
records one span (name, start, end, parent) in memory; `uninstall` puts the
original objects back.  No file of the package changes.

Self time of a span is its duration minus the durations of its direct
children.  A layer's self time is the sum over its spans.  No layer queues
work for another, each waits only by calling, so no waiting time exists to
record.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli", "fields", "conformal3", "cl3", "conformal13",
    "cl13", "oracle", "bridge", "verify",
)
FIELD_CLASSES = ("UniformField", "PlaneWave", "Coulomb")

# Named calls whose counts and inclusive times are reported on their own.
PRODUCT_EXP = {
    "cl3.product": "cl3.cl3_product",
    "cl3.exp": "cl3.exp_complex_vector",
    "cl13.product": "cl13.geometric_product",
    "cl13.exp": "cl13.exp_bivector",
}
# Layers whose refusals (exceptions leaving the layer) are counted.
REFUSING_LAYERS = ("conformal3", "fields")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self.check_spans: dict[str, str] = {}

    def _wrap(self, name: str, layer: str, fn):
        sid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (sid, start, end, parent, raised)

        return traced

    def install(self, package: str = "emconf") -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == package or n.startswith(package + ".")}
        wrapped = {}
        for layer in LAYERS:
            mod = mods[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        fields = mods[f"{package}.fields"]
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            fn = cls.__dict__["faraday"]
            self._restore.append((cls, "faraday", fn))
            setattr(cls, "faraday", self._wrap(f"fields.{cls_name}.faraday", "fields", fn))
        verify = mods[f"{package}.verify"]
        registry = verify.REGISTRY
        self._restore.append((verify, "REGISTRY", registry))
        verify.REGISTRY = tuple(
            (cid, wrapped.get(id(fn), fn), *rest) for cid, fn, *rest in registry
        )
        self.check_spans = {
            cid: f"verify.{fn.__name__}" for cid, fn, *_ in registry
        }

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def summarize(self, spans) -> dict:
        """Per-layer calls and self time, plus the named calls' figures."""
        child = [0.0] * len(spans)
        for sid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        name_calls = Counter()
        name_s = Counter()
        refused = Counter()
        for i, (sid, start, end, parent, raised) in enumerate(spans):
            layer = self.layer_of[sid]
            name = self.names[sid]
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            name_calls[name] += 1
            name_s[name] += end - start
            if raised and (parent < 0 or self.layer_of[spans[parent][0]] != layer):
                refused[layer] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key, name in PRODUCT_EXP.items():
            out[f"{key}_calls"] = name_calls[name]
            out[f"{key}_s"] = name_s[name]
        for layer in REFUSING_LAYERS:
            out[f"{layer}.refused"] = refused[layer]
        for cid, name in self.check_spans.items():
            out[f"verify.{cid}_s"] = name_s[name]
        return out

    def write_spans(self, spans, path) -> None:
        """Spans as gzipped CSV rows: index, name, start, end, parent."""
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "start_s", "end_s", "parent"))
            t0 = spans[0][1] if spans else 0.0
            for i, (sid, start, end, parent, _) in enumerate(spans):
                w.writerow((i, self.names[sid], f"{start - t0:.9f}",
                            f"{end - t0:.9f}", parent))
