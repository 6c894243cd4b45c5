"""Layer timing from outside the program.

A :class:`Layers` object wraps public entry points of the ``repro``
modules (functions, methods, class methods, coroutine methods)
so that every call records a span: its wall time and its *self* time,
the part of the interval not covered by wrapped calls nested inside it
on the same thread.  Nothing in the program is edited; the wrappers
are installed by assignment and removed by :meth:`Layers.restore`.

Spans nest per thread, so work the serving daemon runs on its engine
thread is timed apart from the event loop.  A coroutine method is timed
from call to completion with no nesting at all: while it awaits, other
requests run on the same thread and must not become its children.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.children: Dict[str, float] = {}


class NoLayers:
    """Stand-in for an untraced run: spans cost one extra call."""

    traced = False

    @staticmethod
    def call(name: str, fn: Callable, *args, keep: bool = False, split=None, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def self_seconds() -> Dict[str, float]:
        return {}


class Layers:
    """Per-layer call counts, total seconds and self seconds."""

    traced = True

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, dur: float, self_dur: float, keep: bool) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + self_dur
            if keep:
                self.samples.setdefault(name, []).append(dur)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(
        self,
        name: str,
        fn: Callable,
        *args,
        keep: bool = False,
        split: Optional[Callable] = None,
        **kwargs,
    ):
        """Run ``fn`` under a span named ``name``.

        ``split(result, children)`` may carve named parts out of the
        span's self time: it gets the return value and the seconds of
        the wrapped calls made directly inside, by name, and returns
        ``{part: seconds}``; each part is recorded as a layer of its own.
        """
        stack = self._stack()
        frame = _Frame(name, _clock())
        stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            dur = _clock() - frame.start
            stack.pop()
            if stack:
                parent = stack[-1]
                parent.child += dur
                parent.children[name] = parent.children.get(name, 0.0) + dur
            own = dur - frame.child
            if split is not None and result is not None:
                for part, seconds in split(result, frame.children).items():
                    seconds = min(max(seconds, 0.0), own)
                    own -= seconds
                    self._record(part, seconds, seconds, False)
            self._record(name, dur, own, keep)

    def self_seconds(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.self_s)

    def innermost(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].name if stack else None

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        under: Optional[Iterable[str]] = None,
        on_result: Optional[Callable] = None,
        keep: bool = False,
        split: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``under`` restricts recording to calls made directly inside one
        of the named spans (other calls pass straight through and stay
        in their caller's self time); ``on_result`` sees every recorded
        call's return value, so counters can be read from the program's
        own result objects; ``keep`` retains each call's duration;
        ``split`` is passed to :meth:`call`.
        """
        raw = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)  # bound to the class for a classmethod
        allowed = frozenset(under) if under is not None else None
        layers = self

        if inspect.iscoroutinefunction(target):

            @functools.wraps(target)
            async def replacement(*args, **kwargs):
                start = _clock()
                try:
                    return await target(*args, **kwargs)
                finally:
                    dur = _clock() - start
                    layers._record(name, dur, dur, keep)

        else:

            @functools.wraps(target)
            def replacement(*args, **kwargs):
                if allowed is not None and layers.innermost() not in allowed:
                    return target(*args, **kwargs)
                result = layers.call(name, target, *args, keep=keep, split=split, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

        if isinstance(raw, classmethod):
            timed = replacement
            replacement = classmethod(lambda cls, *a, **k: timed(*a, **k))
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> Dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": dict(self.counts),
        }


def table(snapshot: Dict) -> List[str]:
    """A snapshot as a human-readable layer table, heaviest self time first."""
    own = snapshot["self"]
    rows = [f"{'layer':<30} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    for name in sorted(own, key=lambda k: -own[k]):
        rows.append(
            f"{name:<30} {snapshot['calls'][name]:>9} "
            f"{snapshot['total'][name]:>10.4f} {own[name]:>10.4f}"
        )
    return rows
