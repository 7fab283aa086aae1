"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program: it wraps named functions from
the outside.  :func:`install` replaces a module-level function in
*every* loaded ``repro`` module that binds it (``from .x import f``
makes a second binding), or a method on its defining class, with a
wrapper that reports to a :class:`Recorder`.

Each wrapped call is a span.  The recorder keeps, per span name:

* ``calls`` — how many spans ended;
* ``incl`` — wall time inside the outermost span of that name (a name
  that recurses, or groups functions that call each other, is not
  counted twice);
* ``self`` — the sum over spans of their duration minus the time
  their direct child spans cover.

Spans of names listed in ``keep`` are also stored whole —
``(name, start, end, parent name, correlation id)`` — so they can be
written out when the run ends.  Hot leaf functions are recorded as
counts only (mode ``"count"``); mode ``"distinct"`` also records the
argument tuples a name saw (their number over its calls is the share
of work a memo could not skip).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Recorder:
    """Aggregates spans on one thread; cheap enough for hot paths."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: Sequence[str] = ()) -> None:
        self.clock = clock
        self.keep = frozenset(keep)
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: name -> set of argument tuples seen (mode "distinct")
        self.distinct: Dict[str, set] = {}
        #: whole spans of ``keep`` names
        self.spans: List[Tuple[str, float, float, Optional[str],
                               Optional[str]]] = []
        #: correlation id stamped on kept spans (the unit in flight)
        self.corr: Optional[str] = None
        # Open spans: [name, start, time covered by direct children].
        self._stack: List[list] = []
        self._active: Dict[str, int] = {}

    def _entry(self, name: str) -> List[float]:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def enter(self, name: str) -> None:
        self._active[name] = self._active.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, name: str) -> None:
        end = self.clock()
        frame = self._stack.pop()
        start = frame[1]
        duration = end - start
        entry = self._entry(name)
        entry[0] += 1
        entry[2] += duration - frame[2]
        depth = self._active[name] - 1
        self._active[name] = depth
        if depth == 0:
            entry[1] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if name in self.keep:
            self.spans.append((name, start, end,
                               parent[0] if parent else None, self.corr))

    def count(self, name: str) -> None:
        self._entry(name)[0] += 1

    def add(self, name: str, seconds: float) -> None:
        """Account an interval measured elsewhere (no nesting)."""
        entry = self._entry(name)
        entry[0] += 1
        entry[1] += seconds
        entry[2] += seconds

    def dump(self) -> Dict:
        return {
            "stats": {name: list(v) for name, v in self.stats.items()},
            "distinct": {name: len(v) for name, v in self.distinct.items()},
            "spans": [list(span) for span in self.spans],
        }


def _span_wrapper(fn, name: str, rec: Recorder, distinct: bool = False,
                  unit: bool = False):
    enter, exit_ = rec.enter, rec.exit
    tag = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if distinct:
            # Methods: drop ``self``, key on (function, arguments).
            rec.distinct.setdefault(name, set()).add((tag,) + args[1:])
        if unit:
            # execute_unit(settings, experiment, unit, ...)
            rec.corr = f"{args[1]}/{args[2].name}"
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(name)
    return wrapper


def _count_wrapper(fn, name: str, rec: Recorder):
    count = rec.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        count(name)
        return fn(*args, **kwargs)
    return wrapper


def _timed_generator_wrapper(fn, name: str, rec: Recorder):
    """Time each ``next()`` on the generator *fn* returns: how long
    the consumer was blocked on it."""
    clock, add = rec.clock, rec.add

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    add(name, clock() - start)
                yield item
        finally:
            inner.close()
    return wrapper


def _resolve(target: str):
    """``"pkg.mod:func"`` or ``"pkg.mod:Class.method"`` -> (owner,
    attribute, original object)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = inspect.getattr_static(owner, attr)
    if not inspect.isfunction(original):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, original


def install(rec: Recorder, targets: Sequence[Tuple[str, str, str]],
            prefix: str = "repro") -> Dict[str, int]:
    """Wrap every ``(target, span name, mode)`` in the modules of
    package *prefix*; returns how many bindings each target replaced.

    Modes: ``span``; ``distinct`` (a span that also records its
    argument tuple); ``unit`` (a span that sets the correlation id from
    ``execute_unit``'s arguments); ``count`` (calls only); ``wait``
    (time a consumer spends blocked on the generator the function
    returns).

    Raises ``AttributeError``/``ImportError``/``TypeError`` when a
    target no longer exists, so a rename fails loudly instead of
    silently reporting zero for a layer.
    """
    replaced: Dict[str, int] = {}
    for target, name, mode in targets:
        owner, attr, original = _resolve(target)
        if mode in ("span", "distinct", "unit"):
            wrapper = _span_wrapper(original, name, rec,
                                    distinct=mode == "distinct",
                                    unit=mode == "unit")
        elif mode == "wait":
            wrapper = _timed_generator_wrapper(original, name, rec)
        elif mode == "count":
            wrapper = _count_wrapper(original, name, rec)
        else:
            raise ValueError(f"unknown span mode {mode!r}")
        bindings = 0
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            bindings = 1
        else:
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                        module_name == prefix
                        or module_name.startswith(prefix + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bindings += 1
        replaced[target] = bindings
    return replaced
