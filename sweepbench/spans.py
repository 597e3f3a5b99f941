"""In-memory spans around the layer boundaries of gbsopt.

``install`` rebinds the module-level names that ``gbsopt.optim`` and
``gbsopt.harness`` call through (and two ``QuboProblem`` methods) to
wrappers that record one span per call: name, start, end, parent span
and an optional work count.  Nothing inside gbsopt is edited; calls that
bypass these names are not seen.  Spans stay in memory until ``dump``.
"""

import functools
import json
import time

#: (module attribute path, span name, work-count function or None)
TRACED = (
    ("optim.state_from_theta", "gaussian.state_from_theta", None),
    ("optim.full_distribution", "torontonian.full_distribution", None),
    ("optim.sample", "torontonian.sample", lambda state, k, seed: k),
    ("optim.pattern_probability", "torontonian.pattern_probability", None),
    ("optim.brute_force_solve", "problems.brute_force_solve", None),
    ("optim.cvar_exact", "optim.cvar", None),
    ("optim.cvar_from_samples", "optim.cvar", None),
    ("optim.minimize", "optim.minimize", None),
    ("harness.train", "optim.train", None),
    ("problems.QuboProblem.pattern_energies", "problems.pattern_energies", None),
    ("problems.QuboProblem.values", "problems.values", None),
    ("harness.run_experiment", "harness.run_experiment", None),
    ("harness.verify_report", "harness.verify_report", None),
)


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            n = count(*args, **kwargs) if count else 1
            span = [name, time.perf_counter(), None, parent, n]
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def install(self, gbsopt):
        for path, name, count in TRACED:
            *owner_path, attr = path.split(".")
            owner = gbsopt
            for part in owner_path:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def mark(self):
        """Index of the next span; spans from here on belong to a new phase."""
        return len(self.spans)

    def summarize(self, since=0):
        """Per span name: total time, self time, calls and work count.

        Self time is a span's duration minus that of its direct children;
        spans nest strictly in one thread, so children never overlap.
        """
        child_time = {}
        for name, start, end, parent, _ in self.spans[since:]:
            if parent is not None and parent >= since:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for k, (name, start, end, _, n) in enumerate(self.spans[since:], since):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time.get(k, 0.0)
            agg["calls"] += 1
            agg["count"] += n
        return out

    def dump(self, path):
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "count"],
                                    "spans": self.spans}) + "\n")
