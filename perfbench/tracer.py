"""Span tracing of floerbar's layers from outside the package.

``Tracer.install`` wraps the public functions of each layer module (the
names in its ``__all__`` that it defines) plus a few methods, and rebinds
every module namespace that holds the original, so that calls made through
``from .x import f`` bindings are seen too.  ``uninstall`` restores them.
Nothing inside ``src/`` changes.

Each wrapped call records a span (id, name, start, end, parent span, job id)
in memory; per name the tracer sums calls, self time (span duration minus
the time covered by child spans) and exceptions raised.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

LAYERS = ("cli", "diagrams", "complexes", "persistence", "matching", "radial",
          "exactpi", "novikov")

# (layer, class name, attribute, span name)
METHODS = (
    ("complexes", "FilteredComplex", "validate", "complexes.validate"),
    ("exactpi", "PiRational", "sign", "exactpi.sign"),
    ("novikov", "NovikovScalar", "parse", "novikov.NovikovScalar.parse"),
)

# span name -> counter it feeds with the size of each result
RESULT_COUNTERS = {"radial.feasible_barcodes": "radial.feasible_found"}


class Tracer:
    """Spans and per-name totals of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.errors: List[int] = []
        self.counters: Dict[str, int] = {name: 0 for name in RESULT_COUNTERS.values()}
        # (span id, name index, start, end, parent span id or -1, job id)
        self.spans: List[Tuple[int, int, float, float, int, int]] = []
        self.job = -1
        self._stack: List[list] = []
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.errors.append(0)
        return self._index[name]

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self._name_index(name)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]  # id, time covered by child spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.errors[idx] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[idx] += 1
            self.self_s[idx] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            self.spans.append((span_id, idx, start, end,
                               parent[0] if parent is not None else -1, self.job))
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counters[counter] += len(result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer modules of the imported ``package``."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind_everywhere(modules, fn, self._wrap(f"{layer}.{attr}", fn))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _rebind_everywhere(self, modules, original, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def stat(self, name: str, field: str):
        """``calls``, ``self_s`` or ``errors`` of one span name (0 if unseen)."""
        idx = self._index.get(name)
        if idx is None:
            return 0
        return getattr(self, field)[idx]

    def per_job(self, name: str) -> Dict[int, int]:
        """Calls of ``name`` per job id."""
        idx = self._index.get(name)
        out: Dict[int, int] = {}
        for _sid, n, _s, _e, _p, job in self.spans:
            if n == idx:
                out[job] = out.get(job, 0) + 1
        return out

    def child_calls(self, parent: str, child: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        pidx, cidx = self._index.get(parent), self._index.get(child)
        if pidx is None or cidx is None:
            return 0
        parents = {sid for sid, n, _s, _e, _p, _j in self.spans if n == pidx}
        return sum(1 for _sid, n, _s, _e, p, _j in self.spans if n == cidx and p in parents)

    def write(self, path: Path, jobs: Dict[int, str]) -> None:
        """Dump names, per-name totals, counters, job names and all spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "names": self.names,
            "totals": {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                              "errors": self.errors[i]}
                       for i, name in enumerate(self.names)},
            "counters": self.counters,
            "jobs": {str(k): v for k, v in jobs.items()},
            "span_fields": ["id", "name", "start", "end", "parent", "job"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(data), encoding="utf-8")
