"""In-memory spans around calls into vdtptune's public functions.

Tracing is done from outside the package: while a Tracer is active, the
module attributes through which callers reach each public function are
replaced by wrappers that record a span (name, start, end, parent) and are
put back when it ends. Nothing in the package itself is traced.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute) pairs patched while tracing. A function appears once per
# module that calls it through a global name, so calls made inside the package
# are seen as well as the benchmark's own.
TRACED = (
    ("vdtptune.harness.campaign", "run_campaign"),
    ("vdtptune.harness.campaign", "wilcoxon_signed_rank"),
    ("vdtptune.harness.campaign", "friedman_ranks"),
    ("vdtptune.optimizers", "run"),
    ("vdtptune.harness.benchfuncs", "random_search"),
    ("vdtptune.harness.reports", "write_campaign_outputs"),
    ("vdtptune.harness.reports", "qos_rows"),
    ("vdtptune.harness.reports", "evaluate"),
    ("vdtptune.fitness", "evaluate"),
    ("vdtptune.fitness", "simulate_replication"),
    ("vdtptune.sim.transfer", "run_sessions"),
    ("vdtptune.sim.transfer", "simulate_session_events"),
    ("vdtptune.sim.transfer", "write_event_trace"),
)


def _replication_counts(outcome) -> dict:
    return {"sessions": outcome.sessions, "refused_sessions": outcome.refused_sessions}


# counts taken from a traced call's return value, at the same boundary
COUNTERS = {"simulate_replication": _replication_counts}


class Tracer:
    """Records spans as (id, name, parent_id, start_s, end_s) tuples."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def span(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid] = (sid, name, parent, start, time.perf_counter())
                self._stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result

        return traced

    def __enter__(self):
        for mod_name, attr in TRACED:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.span(attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def durations(self, name: str) -> list:
        return [end - start for _, n, _, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Time spent in `child_name` spans directly under `parent_name` spans."""
        parents = {sid for sid, n, *_ in self.spans if n == parent_name}
        return sum(end - start for _, n, p, start, end in self.spans if n == child_name and p in parents)

    def self_times(self) -> dict:
        """Per span name: total duration minus the time its direct children cover."""
        covered = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, name, _, start, end in self.spans:
            out[name] += end - start - covered[sid]
        return dict(out)

    def records(self) -> list:
        keys = ("id", "name", "parent", "start_s", "end_s")
        return [dict(zip(keys, s)) for s in self.spans]
