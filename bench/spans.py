"""Spans around calls into the program's public functions.

The tracer replaces a function by a wrapper in every loaded ``fdrelay``
module that binds it, so calls made through ``from .x import f`` names are
seen too; nothing under ``src/`` changes. Each call is a span with a name,
a parent, a start, an end, the round it ran in and an optional note
computed from the call.

Per round and span name the tracer adds up count, total time and self time
(duration minus the time covered by child spans) as calls end. The spans
themselves are kept in memory for the set-up and the first ``KEEP_ROUNDS``
rounds only (the analytic sweep makes about 4,000 calls a round) and
written out at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


#: ``Tracer.round`` while the workload sets up, before the first timed round.
SETUP_ROUND = -1
#: Timed rounds whose spans are kept for the trace file.
KEEP_ROUNDS = 2


def _new_aggregate():
    return {"count": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}


class Tracer:
    def __init__(self):
        self.round = SETUP_ROUND
        self.spans: list[tuple] = []  # (id, name, parent, start, end, round, note)
        self.rounds: dict[int, dict[str, dict]] = defaultdict(lambda: defaultdict(_new_aggregate))
        self._stack: list[list] = []  # [span id, child seconds] of open spans
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                seconds = end - start
                if parent is not None:
                    parent[1] += seconds
                agg = self.rounds[self.round][name]
                agg["count"] += 1
                agg["total_s"] += seconds
                agg["self_s"] += seconds - frame[1]
                noted = note(args, kwargs, result) if note else None
                if noted is not None:
                    agg["notes"].append((noted, seconds))
                if self.round < KEEP_ROUNDS:
                    self.spans.append((frame[0], name, parent[0] if parent else -1,
                                       start, end, self.round, noted))

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, note=None) -> None:
        """Trace ``module.attr`` wherever an fdrelay module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "fdrelay" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def aggregate(self, rnd: int, name: str) -> dict:
        """Count, total and self seconds and notes of one span name in a round."""
        names = self.rounds.get(rnd, {})
        return names[name] if name in names else _new_aggregate()

    def write(self, path) -> None:
        """Write the kept spans as gzipped JSON lines, times relative to the first."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, parent, start, end, rnd, note in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "round": rnd,
                    "start_s": round(start - origin, 9), "end_s": round(end - origin, 9),
                    "note": note,
                }) + "\n")
