"""Spans around calls into pcomb's modules, recorded from outside the program.

``Tracer.install`` replaces each target function by a wrapper, in its
defining module and under every name another pcomb module imported it by,
so calls between modules pass through the wrapper too.  A wrapper records a
span (name, start, end, parent) and the counts the target's arguments or
result give.  A layer is the module that defines the function; its self
time is the time in its spans minus the time in the spans they caused.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

#: spans kept for the trace file; totals and counts cover every span
SPAN_CAP = 20_000


class Tracer:
    def __init__(self, targets):
        """``targets``: (module, attribute, counter) triples; ``counter`` is
        None or maps (bound arguments, result) to {count name: amount}."""
        self.targets = targets
        self.missing = []
        self.self_s = defaultdict(float)      # layer -> self time
        self.inclusive_s = defaultdict(float)  # span name -> time
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)          # span name -> calls
        self.spans = []
        self.dropped = 0
        self._next_id = 0
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, layer, counter):
        signature = inspect.signature(fn) if counter else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]                       # time of child spans
            parent = stack[-1][1] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            stack.append((frame, span_id))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0][0] += duration
                self.self_s[layer] += duration - frame[0]
                self.inclusive_s[name] += duration
                self.calls[name] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if counter:
                bound = signature.bind(*args, **kwargs)
                for key, amount in counter(bound.arguments, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pcomb" or n.startswith("pcomb."))]
        self.missing = []
        for module_name, attr, counter in self.targets:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            layer = module_name.rsplit(".", 1)[-1]
            wrapper = self._wrap(original, attr, layer, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()
