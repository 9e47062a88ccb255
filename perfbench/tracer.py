"""In-memory span tracer for the fibquasi package.

`Tracer.install()` replaces every function defined in a ``fibquasi``
module with a timing wrapper, wherever that function object is bound:
module namespaces (the package modules import each other's functions by
name), module-level dispatch dicts such as ``closed_form.ENUMERATORS``
and ``verify._ORACLES``, and methods and property getters of classes
defined in the package (``FactorForm.materialize``). Matching is by
object identity, so one function gets one wrapper however many names
it has. `uninstall()` puts every original object back.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory until `write()`. Per-name call counts and self time (the
span's duration minus the time of its child spans) are accumulated as
the spans close, so no pass over the spans is needed to report them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from pathlib import Path

PACKAGE = "fibquasi"


class Tracer:
    def __init__(self, result_hooks: dict | None = None):
        # result_hooks: span name -> (counter name, result -> int). The
        # hook runs on each returned value, e.g. to count list items.
        self.result_hooks = dict(result_hooks or {})
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {
            counter: 0 for counter, _ in self.result_hooks.values()}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self._sites: list[tuple] | None = None

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        hook = self.result_hooks.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                span_start[idx] = t0
                span_end[idx] = t1
                stack.pop()
                inner = child.pop()
                child[-1] += t1 - t0
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - inner
            if hook is not None:
                counters[hook[0]] += hook[1](result)
            return result

        return traced

    def _binding_sites(self) -> list[tuple]:
        """(setter, owner, key, original, wrapper) for every place a
        package function is bound."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                short = fn.__module__[len(PACKAGE) + 1:] or PACKAGE
                wrappers[id(fn)] = self._wrap(fn, f"{short}.{fn.__qualname__}")
            return wrappers[id(fn)]

        def defined_here(obj) -> bool:
            return (isinstance(obj, types.FunctionType)
                    and (obj.__module__ or "").startswith(PACKAGE))

        sites = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if defined_here(value):
                    sites.append((setattr, mod, attr, value, wrapper_for(value)))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if defined_here(item):
                            sites.append((dict.__setitem__, value, key, item,
                                          wrapper_for(item)))
                elif (isinstance(value, type)
                      and value.__module__ == mod.__name__):
                    for cattr, member in vars(value).items():
                        if cattr.startswith("__"):
                            continue
                        if defined_here(member):
                            sites.append((setattr, value, cattr, member,
                                          wrapper_for(member)))
                        elif (isinstance(member, property)
                              and defined_here(member.fget)):
                            sites.append((setattr, value, cattr, member,
                                          property(wrapper_for(member.fget),
                                                   member.fset, member.fdel,
                                                   member.__doc__)))
        return sites

    def install(self) -> None:
        """Wrap every package function at every binding site. Cheap to
        repeat: the wrappers are made on the first call only."""
        if self._sites is None:
            self._sites = self._binding_sites()
        for setter, owner, key, _, wrapper in self._sites:
            setter(owner, key, wrapper)

    def uninstall(self) -> None:
        """Put every original object back."""
        for setter, owner, key, original, _ in self._sites or ():
            setter(owner, key, original)

    # -- results ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def stats(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one function; (0, 0.0) for a name
        that was never wrapped."""
        if name not in self.names:
            return 0, 0.0
        nid = self.names.index(name)
        return self.calls[nid], self.self_s[nid]

    def call_counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def write(self, stem: Path, meta: dict) -> None:
        """Write the spans as ``<stem>.json`` (header: name table, field
        layout, run metadata) and ``<stem>.bin`` (the four arrays, in
        native byte order, one after the other)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": self.span_count,
            "fields": [["name", "i"], ["parent", "i"],
                       ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "meta": meta,
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)
