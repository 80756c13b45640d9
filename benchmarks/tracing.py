"""Span tracing of elfkit from outside the package.

``Tracer.install`` replaces every public function of the traced modules at
each module that binds it, including the module that defines it, so calls
between modules and within one module are both recorded.  Public methods
and constructors of the traced modules' classes are wrapped on the class.
Dataclass constructors, enums and exceptions are left alone: they build
records and do no work of their own.  Spans stay in memory until read.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
from time import perf_counter
from types import ModuleType
from typing import Callable

from harness import Span


class Tracer:
    def __init__(self, modules: list[ModuleType], observers: dict[str, Callable] | None = None) -> None:
        """``observers`` maps a span name to ``fn(args, kwargs, result)``, called on success."""
        self.modules = modules
        self.observers = observers or {}
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack = self.spans, self._stack
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, layer, start, end, parent, ok)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        traced_names = {m.__name__ for m in self.modules}
        wrappers: dict[int, Callable] = {}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                origin = getattr(value, "__module__", None)
                if inspect.isfunction(value) and origin in traced_names:
                    layer = origin.rsplit(".", 1)[-1]
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__name__}", layer)
                    self._patch(module, attr, wrappers[id(value)])
                elif inspect.isclass(value) and origin == module.__name__:
                    self._wrap_class(value, module.__name__.rsplit(".", 1)[-1])

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                name = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._wrap(fn, name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Position in the span list, to select the spans of one phase."""
        return len(self.spans)
