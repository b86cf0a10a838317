"""Span tracer for the benchmark's traced run.

Each traced function is replaced by a wrapper that records a span around the
call.  Spans are aggregated per (name, parent name), so memory stays bounded
however many calls are made.  A span's self time is its duration minus the
durations of its child spans.  The wrapper's own bookkeeping (pushing and
popping frames, updating the aggregates) is timed as well and kept apart in
``bookkeeping_s``, so that

    sum of all self times + bookkeeping_s == duration of the outermost span

The wrapper also costs time its clock reads cannot see: entering and leaving
it (charged to the caller's span) and calling through it (charged to the
callee's).  calibrate() measures both per call on a wrapped no-op, and every
span then moves them from the self times into bookkeeping_s, so that the self
times of small, frequently called functions are not dominated by tracing.
"""

from __future__ import annotations

import sys
import time

ROOT = "<root>"


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = [[ROOT, 0.0]]
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        # name -> every duration in seconds, for names traced with sample=True
        self.samples: dict[str, list[float]] = {}
        # name -> sum of outcome(result), for names traced with an outcome
        self.outcomes: dict[str, int] = {}
        self.bookkeeping_s = 0.0
        # per-call wrapper cost outside its clock reads / inside the callee's
        self.outer_s = 0.0
        self.inner_s = 0.0

    def calibrate(self, calls: int = 20000, rounds: int = 7) -> None:
        """Measure outer_s and inner_s on calls to a wrapped two-argument
        no-op, against calls to the bare no-op.  The fastest of several rounds
        is kept, so that machine noise can only leave some overhead in the
        self times, never take real work out of them."""
        clock = time.perf_counter

        def noop(a, b):
            return None

        outers, inners = [], []
        for _ in range(rounds):
            probe = Tracer()
            traced = probe.wrap("probe", noop)
            t0 = clock()
            for i in range(calls):
                noop(i, calls)
            bare = clock() - t0
            t0 = clock()
            for i in range(calls):
                traced(i, calls)
            wrapped = clock() - t0
            seen = probe._stack[0][1]  # clock-visible time of all probe calls
            recorded = probe.spans[("probe", ROOT)][1]
            outers.append((wrapped - seen - bare) / calls)
            inners.append(recorded / calls)
        self.outer_s = max(min(outers), 0.0)
        self.inner_s = max(min(inners), 0.0)

    def wrap(self, name: str, fn, sample: bool = False, outcome=None):
        """Return fn wrapped in a span called name."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        samples = self.samples.setdefault(name, []) if sample else None
        if outcome is not None:
            self.outcomes[name] = 0
        tracer = self
        outer, inner = self.outer_s, self.inner_s

        def traced(*args, **kwargs):
            t0 = clock()
            frame = [name, 0.0]
            stack.append(frame)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                dur = t2 - t1
                parent = stack[-1]
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1] - inner
                if samples is not None:
                    samples.append(dur)
            if outcome is not None:
                tracer.outcomes[name] += outcome(result)
            t3 = clock()
            parent[1] += t3 - t0 + outer
            tracer.bookkeeping_s += (t1 - t0) + (t3 - t2) + outer + inner
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, targets) -> None:
        """Trace package functions.

        targets holds (module, attribute, options) triples.  `from .x import f`
        copies the binding, so every binding of the same function object in
        any loaded module of the package is replaced by one shared wrapper.
        """
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for module, attr, options in targets:
            full = f"{package}.{module}"
            original = getattr(sys.modules[full], attr)
            wrapped = self.wrap(f"{module}.{attr}", original, **options)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds] summed over parents."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, self_s) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out
