"""The span pass: per-layer host time from outside the program.

:class:`SpanMeter` replaces the public entry points of each ``repro``
layer with timing wrappers and puts the originals back afterwards,
the way ``repro.bench.profile`` patches ``Engine._thread_body``.  No
file under ``src/`` knows about it.

Every wrapped call is a span.  A span's *self* time is its duration
minus the durations of the spans nested in it on the same thread.  The
engine runs one simulated processor thread at a time and hands control
over inside ``Engine.park``, so a park's duration is time spent in other
threads' spans: a park counts its calls, subtracts its duration from the
span that contains it, and keeps no self time of its own.  Self times
therefore add up to at most the wall time; the rest is reported as
unattributed.

Each thread accumulates into its own arrays (registered when the thread
first enters a span), so the brief overlap of two threads at a handoff
can never lose an update.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: Layers in report order; a span's layer is its name's first component.
LAYERS = ("apps", "core", "dsm", "protocols", "stats", "sim", "trace")

#: The span that counts engine handoffs and keeps no self time.
PARK = "sim.park"


def _targets() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, span name) for every wrapped entry point."""
    import repro.dsm.lrc
    from repro.apps.base import AppRegistry, get_app
    from repro.core.proc import Proc
    from repro.dsm.lrc import LrcProc
    from repro.dsm.sync import SyncManager
    from repro.protocols.erc import EagerRcProc
    from repro.protocols.hlrc import HomeLrcProc
    from repro.protocols.swi import SwiProc
    from repro.sim.engine import Engine
    from repro.sim.network import Network
    from repro.stats.words import WordTracker
    from repro.trace.recorder import TraceRecorder

    out: List[Tuple[Any, str, str]] = []
    for name in AppRegistry.names():
        cls = type(get_app(name))
        out += [(cls, "worker", "apps.worker"), (cls, "setup", "apps.setup")]
    out += [
        (Proc, "read", "core.read"),
        (Proc, "read_range", "core.read"),
        (Proc, "write", "core.write"),
        (Proc, "write_range", "core.write"),
        (Proc, "read_gather", "core.read_gather"),
        (Proc, "write_scatter", "core.write_scatter"),
        (Proc, "barrier", "core.barrier"),
        (Proc, "acquire", "core.lock"),
        (Proc, "release", "core.lock"),
    ]
    for attr in ("fetch", "apply_notices_upto", "close_interval", "read_words",
                 "write_words", "read_gather", "write_scatter"):
        out.append((LrcProc, attr, f"dsm.{attr}"))
    out.append((SyncManager, "service", "dsm.sync_service"))
    # Looked up as module globals by LrcProc, so wrapped where it finds them.
    for attr in ("apply_diff", "merge_diffs", "create_diff"):
        out.append((repro.dsm.lrc, attr, f"dsm.{attr}"))
    for cls, proto, attrs in (
        (HomeLrcProc, "hlrc", ("close_interval", "fetch", "apply_notices_upto")),
        (EagerRcProc, "erc", ("close_interval",)),
        (SwiProc, "swi", ("fetch", "write_words")),
    ):
        out += [(cls, attr, f"protocols.{proto}.{attr}") for attr in attrs]
    for attr in ("mark", "on_read", "on_write", "resolve_read", "resolve_write"):
        out.append((WordTracker, attr, f"stats.{attr}"))
    out.append((Network, "record", "sim.record"))
    out.append((Engine, "park", PARK))
    out += [
        (TraceRecorder, attr, "trace.emit")
        for attr in sorted(vars(TraceRecorder))
        if attr.startswith("on_")
    ]
    return out


class _ThreadState(threading.local):
    """Per-thread accumulators.  ``threading.local`` re-runs ``__init__``
    in each new thread; ``registry`` keeps every thread's lists after
    the thread ends (thread-local storage dies with its thread)."""

    def __init__(self, nspans: int, registry: List[Tuple[List[int], List[float]]]) -> None:
        self.calls = [0] * nspans
        self.self_s = [0.0] * nspans
        self.stack: List[float] = []
        """Per open span: the summed durations of its finished children."""
        registry.append((self.calls, self.self_s))


class SpanMeter:
    """Install with ``with meter:``; read and reset with :meth:`take`."""

    def __init__(self) -> None:
        self.targets = _targets()
        self.names = list(dict.fromkeys(name for _, _, name in self.targets))
        """Every span name, in first-wrapped order."""
        self._index = {name: i for i, name in enumerate(self.names)}
        self._registry: List[Tuple[List[int], List[float]]] = []
        self._local = _ThreadState(len(self.names), self._registry)
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        idx = self._index[name]
        keep_self = name != PARK
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack = local.stack
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                local.calls[idx] += 1
                if keep_self:
                    local.self_s[idx] += dur - inner
                if stack:
                    stack[-1] += dur

        return span

    def __enter__(self) -> "SpanMeter":
        self._saved = []
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot wrap {owner!r}.{attr}")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)

    def take(self) -> Dict[str, Tuple[int, float]]:
        """Merge every thread's accumulators into ``{span: (calls,
        self_s)}`` and reset them."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for t_calls, t_self in self._registry:
            for i in range(len(self.names)):
                calls[i] += t_calls[i]
                self_s[i] += t_self[i]
                t_calls[i] = 0
                t_self[i] = 0.0
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}
