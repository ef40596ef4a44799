"""In-memory span recorder that times calls into txrisk from outside it.

A :class:`Tracer` replaces module attributes (``txrisk.thermal.simulate_day``
and so on) with wrappers that record one span per call: an id, a name, the
id of the span that was open when the call began (its parent), a start and
an end. The program looks these functions up as module attributes at call
time, so no code under ``src/`` changes.

Spans go to per-thread buffers of flat arrays, so a call made from a worker
thread never interleaves its fields with another thread's. A worker thread
with no open span of its own takes the main thread's innermost open span as
the parent: that is the call that started the thread pool.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array


class _Buffer:
    __slots__ = ("ids", "names", "parents", "starts", "ends", "stack",
                 "counters")

    def __init__(self):
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counters = {}


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._buffers: dict[int, _Buffer] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._main = self._buffer()
        self._patched: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        ident = threading.get_ident()
        buf = self._buffers.get(ident)
        if buf is None:
            with self._lock:
                buf = self._buffers.setdefault(ident, _Buffer())
        return buf

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``on_return(counters, result)`` may add to the calling thread's
        counters after a call returns normally.
        """
        idx = len(self.names)
        self.names.append(name)
        buffers = self._buffers
        get_ident = threading.get_ident
        new_buffer = self._buffer
        next_id = self._ids.__next__
        perf = time.perf_counter
        main_stack = self._main.stack

        def traced(*args, **kwargs):
            buf = buffers.get(get_ident()) or new_buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next_id()
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(idx)
                buf.parents.append(parent)
                buf.starts.append(start)
                buf.ends.append(end)
            if on_return is not None:
                on_return(buf.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, on_return=None):
        """Replace ``module.attr`` by its traced wrapper until :meth:`restore`."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.wrap(name, original, on_return))
        self._patched.append((module, attr, original))

    def restore(self):
        """Put every patched attribute back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def counters(self) -> dict[str, float]:
        """Counters summed over all threads."""
        total: dict[str, float] = {}
        for buf in self._buffers.values():
            for key, value in buf.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def save(self, path):
        """Write all spans to an ``.npz`` file (arrays ``ids``, ``names``,
        ``parents``, ``starts``, ``ends`` and the ``labels`` of name ids)."""
        import numpy as np

        bufs = list(self._buffers.values())

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs]
            return np.concatenate(parts) if parts else np.empty(0, dtype)

        np.savez(path, ids=cat("ids", np.int64), names=cat("names", np.int32),
                 parents=cat("parents", np.int64),
                 starts=cat("starts", np.float64), ends=cat("ends", np.float64),
                 labels=np.array(self.names))
