"""Host-time spans around the calls into each layer of ``repro``.

The traced run wraps functions of the simulator from the benchmark's
own files: a wrapper times the call, credits it to a span key (such as
``cms.interpret``) and to a layer (such as ``cms``), and subtracts the
time of wrapped calls nested inside it, so each layer also gets a self
time.  Nothing is registered with the simulator itself: no kernel
observer, no fire hook.  Those would force the scheduler's legacy
dispatch route and change outcomes at ULP scale, so the traced run
would no longer measure the same program.

A name imported into other modules (``from ... import f``) is patched
in every ``repro`` module that binds it, because Python looks the name
up there, not in the defining module.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class SpanStats:
    """Call count and host seconds of one span key."""

    __slots__ = ("calls", "busy_s")

    def __init__(self) -> None:
        self.calls = 0
        #: Time inside outermost calls of this key; a recursive or
        #: re-entrant call is not counted twice.
        self.busy_s = 0.0


class Tracer:
    """Span bookkeeping shared by every wrapper of one traced pass."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        #: Free-form accumulators filled by the ``after`` hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Callable[[], None]] = []

    def reset(self) -> None:
        """Forget what was measured; the patches stay in place."""
        self.spans.clear()
        self.layer_self_s.clear()
        self.counts.clear()

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, key: str, layer: str,
             after: Optional[Callable[..., None]] = None,
             before: Optional[Callable[..., Any]] = None) -> Callable:
        """Return *fn* timed under *key* and *layer*.

        ``after(tracer, result, args, kwargs)`` runs once the call has
        returned, outside the timed interval.  With ``before``, its
        value ``before(args, kwargs)`` taken ahead of the call is passed
        to ``after`` as a fifth argument.
        """
        stack = self._stack
        depth = self._depth
        spans = self.spans
        layer_self = self.layer_self_s
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[key] -= 1
                stats = spans[key]
                stats.calls += 1
                if depth[key] == 0:
                    stats.busy_s += dt
                layer_self[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if before is not None:
                after(tracer, result, args, kwargs, token)
            elif after is not None:
                after(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def replace(self, cls: type, name: str, new: Callable) -> None:
        """Set ``cls.name`` to *new* until :meth:`unpatch`."""
        original = cls.__dict__[name]
        setattr(cls, name, new)
        self._undo.append(lambda: setattr(cls, name, original))

    def patch_method(self, cls: type, name: str, key: str, layer: str,
                     after: Optional[Callable[..., None]] = None,
                     before: Optional[Callable[..., Any]] = None) -> None:
        """Wrap ``cls.name``; a name the class lacks raises KeyError."""
        original = cls.__dict__[name]
        self.replace(cls, name, self.wrap(original, key, layer, after, before))

    def patch_function(self, fn: Callable, key: str, layer: str,
                       after: Optional[Callable[..., None]] = None) -> int:
        """Wrap *fn* in every loaded ``repro`` module that binds it."""
        wrapped = self.wrap(fn, key, layer, after)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn)
                    )
                    patched += 1
        return patched

    def unpatch(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- results -------------------------------------------------------------

    def busy(self, key: str) -> float:
        stats = self.spans.get(key)
        return stats.busy_s if stats is not None else 0.0

    def calls(self, key: str) -> int:
        stats = self.spans.get(key)
        return stats.calls if stats is not None else 0
