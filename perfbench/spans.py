"""Spans around the calls into each layer's public functions.

The layers are the package's modules. `Tracer.install()` replaces every
public function and every public or constructor method (including
property getters) that a layer module defines with a timing wrapper, in
that module and in every other tsgof module that imported it by name, so
calls between layers are seen at their boundary. Nothing inside the
package changes; `uninstall()` restores the originals.

Spans are kept in memory as (name, parent, start, end); entering the
tracer starts a new set, and `write` puts them in a file when the run
ends. A span's self time is its duration minus the time covered by its
child spans.
"""

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "harness",
    "gof",
    "entropy",
    "knn",
    "linalg",
    "distributions",
    "mathcore",
    "statkit",
)

# layers whose spans are replicate compute; time outside them is overhead
COMPUTE_LAYERS = ("gof", "entropy", "knn", "linalg", "distributions", "mathcore", "statkit")


def _traced_names(cls):
    for name, attr in vars(cls).items():
        if name.startswith("_") and name not in ("__init__", "__post_init__"):
            continue
        if isinstance(attr, (staticmethod, classmethod, property)) or inspect.isfunction(attr):
            yield name, attr


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, span_name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span_name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()

        return traced

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        modules = {layer: importlib.import_module(f"tsgof.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr_name, attr in _traced_names(obj):
                        span = f"{layer}.{name}.{attr_name}"
                        if isinstance(attr, property):
                            wrapped = property(self._wrap(span, attr.fget), attr.fset, attr.fdel)
                        elif isinstance(attr, (staticmethod, classmethod)):
                            wrapped = type(attr)(self._wrap(span, attr.__func__))
                        else:
                            wrapped = self._wrap(span, attr)
                        self._patch(obj, attr_name, wrapped)
        # rebind every reference to a traced function, in every module
        package = importlib.import_module("tsgof")
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(module, name, replaced[id(obj)])
        return self

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.spans.clear()
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """{span name: [calls, total seconds, self seconds]} plus per-layer
        self seconds under 'layer:<name>' and top-level compute seconds
        under 'compute'."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = [name.split(".", 1)[0] for name, *_ in self.spans]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        compute = 0.0
        for index, (name, parent, start, end) in enumerate(self.spans):
            duration = end - start
            own = duration - child_time[index]
            entry = out[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            out["layer:" + layers[index]][2] += own
            top_level = parent < 0 or layers[parent] not in COMPUTE_LAYERS
            if layers[index] in COMPUTE_LAYERS and top_level:
                compute += duration
        out["compute"][1] = compute
        return dict(out)

    def write(self, path):
        """Write the spans as CSV: index, parent, name, start and duration in µs."""
        origin = self.spans[0][2] if self.spans else 0.0
        lines = ["index,parent,name,start_us,duration_us"]
        for index, (name, parent, start, end) in enumerate(self.spans):
            lines.append(
                f"{index},{parent},{name},{(start - origin) * 1e6:.3f},{(end - start) * 1e6:.3f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
