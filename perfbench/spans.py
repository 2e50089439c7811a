"""Spans and counts recorded from outside ``semzk``, by wrapping its functions.

Nothing under ``src/`` knows it is being traced.  :class:`Patcher` swaps a
function object for a wrapper in every ``semzk`` module namespace that binds
it (modules import each other's functions by name, so patching only the
defining module would miss most calls) and puts the originals back on exit.

:class:`Tracer` keeps spans in memory: each has a name ``<layer>.<call>``, a
start, an end, the index of its parent span and a few exact counts (steps,
iterations, mode pairs, bytes, 2-D transforms).  A span's self time is its
duration minus the durations of its direct children; the run is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: The layers wrapped in a traced run, in the order they are reported.
LAYERS = ("spectral", "dynamics", "integrators", "norms", "snapshots",
          "dyadic", "probes", "scenarios")

#: Public functions evaluated inside every right-hand side; a span there
#: would trace the inner loop and split the step into hundreds of pieces.
UNTRACED = ("dynamics.soliton_shape", "dynamics.soliton_shape_dx")

#: FFT entry points counted as transforms (complex and real, 2-D and n-D).
FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn",
             "irfftn")


def _semzk_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "semzk"
                                    or name.startswith("semzk."))]


class Patcher:
    """Replace objects by identity in module namespaces; undo on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def set_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def transforms_in_call(name: str, args, kwargs) -> int:
    """Number of 2-D (or n-D) transforms one FFT call performs.

    ``fft2``-style calls transform the last two axes and batch over the
    rest; ``fftn``-style calls transform every axis unless ``axes`` says
    otherwise.
    """
    a = args[0] if args else kwargs.get("x", kwargs.get("a"))
    shape = getattr(a, "shape", ())
    default = (-2, -1) if name.endswith("2") else None
    axes = args[2] if len(args) > 2 else kwargs.get("axes", default)
    if axes is None or not shape:
        return 1
    batch = 1
    done = {ax % len(shape) for ax in axes}
    for ax, size in enumerate(shape):
        if ax not in done:
            batch *= size
    return batch


class Tracer:
    """In-memory spans plus per-layer exception counts.

    ``spans`` is a list of dicts with keys ``name``, ``start``, ``end``,
    ``parent`` (index, or -1 at the top) and ``info`` (exact counts).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None,
                           "parent": parent, "info": {}})
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount) -> None:
        """Add to a count on the innermost open span (dropped if none)."""
        if self._stack:
            info = self.spans[self._stack[-1]]["info"]
            info[key] = info.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(info, result, args, kwargs)`` adds counts."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self.spans[idx]["info"], result, args, kwargs)
                return result
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.end(idx)

        return traced

    # -- analysis --------------------------------------------------------
    def durations(self):
        """Per-span (duration, self time) in seconds."""
        dur = [s["end"] - s["start"] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s["parent"] >= 0:
                child[s["parent"]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and summed counts."""
        dur, own = self.durations()
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "info": Counter()})
        for i, s in enumerate(self.spans):
            row = out[s["name"]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += own[i]
            row["info"].update(s["info"])
        return {name: {**row, "info": dict(row["info"])}
                for name, row in out.items()}

    def write(self, path) -> None:
        """Write every span as one JSON document (done once, at the end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "errors": dict(self.errors)}, handle)


# ---------------------------------------------------------------------------
# what gets wrapped


def _after_evolve(info, path, args, kwargs):
    T = args[2] if len(args) > 2 else kwargs["T"]
    dt = args[3] if len(args) > 3 else kwargs["dt"]
    info["steps"] = max(1, int(round(abs(T) / dt))) if T else 0
    info["fields_kept"] = len(path.fields)


def _after_picard(info, result, args, kwargs):
    info["iterations"] = result[1].iterations


def _after_block(info, block, args, kwargs):
    info["modes"] = int(block.modes.shape[0])


def _after_product(info, norm, args, kwargs):
    b1, b2 = args[0], args[1]
    info["pairs"] = int(b1.modes.shape[0]) * int(b2.modes.shape[0])


def _after_file(info, result, args, kwargs):
    info["bytes"] = os.path.getsize(args[0])


_AFTER = {
    "integrators.evolve": _after_evolve,
    "integrators.picard_solve": _after_picard,
    "dyadic.random_block_sparse": _after_block,
    "probes.sparse_product_l2": _after_product,
    "snapshots.write_snapshot": _after_file,
    "snapshots.read_snapshot": _after_file,
}


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every public function of the traced layers, the diagnostics
    collector, the callbacks handed to ``evolve`` and the FFT entry points."""
    import numpy.fft
    import scipy.fft

    import semzk.scenarios

    modules = _semzk_modules()
    for layer in LAYERS:
        mod = sys.modules[f"semzk.{layer}"]
        for fname in getattr(mod, "__all__", ()):
            fn = getattr(mod, fname)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{fname}"
            if name in UNTRACED:
                continue
            wrapped = tracer.wrap(name, fn, _AFTER.get(name))
            if name == "integrators.evolve":
                wrapped = _wrap_callbacks(tracer, wrapped)
            patcher.replace(fn, wrapped, modules)

    collector = semzk.scenarios.DiagnosticsCollector
    patcher.set_attr(collector, "__call__",
                     tracer.wrap("norms.diag", collector.__call__))

    for mod in (numpy.fft, scipy.fft):
        for fname in FFT_NAMES:
            patcher.set_attr(mod, fname, _counting_fft(tracer, fname,
                                                       getattr(mod, fname)))


def _wrap_callbacks(tracer: Tracer, evolve):
    """Give each evolve callback its own span, so step time excludes them."""

    @functools.wraps(evolve)
    def traced_evolve(*args, **kwargs):
        callbacks = kwargs.get("callbacks", ())
        kwargs["callbacks"] = [tracer.wrap("scenarios.callback", cb)
                               for cb in callbacks]
        return evolve(*args, **kwargs)

    return traced_evolve


def _counting_fft(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count("transforms", transforms_in_call(name, args, kwargs))
        return fn(*args, **kwargs)

    return counted
