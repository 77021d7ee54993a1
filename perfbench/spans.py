"""In-memory span recording around edgeflight's calls, installed from outside.

A `Tracer` replaces functions and methods where the simulator looks them up
(module globals imported by name, class attributes, the `csgraph` module the
planner calls through) with wrappers that record one span per call: name,
start, end, parent span and episode id. Nothing inside `src/` changes; the
originals are restored when the `installed` block exits.

Self time of a span is its duration minus the time covered by its direct
children. Spans never overlap except by nesting, because the simulator is
single-threaded.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

SETUP = -1  # episode id of spans recorded while building a city


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.episodes: list[int] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.episode = SETUP
        self._stack: list[int] = []

    # ---- recording ----

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span per call.

        `before(args)` runs ahead of the span and its result is handed to
        `after(state, args, result)`, which runs once the span has closed, so
        the bookkeeping stays out of the span's own time.
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, episodes, stack = self.parents, self.episodes, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            episodes.append(self.episode)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(state, args, result)
            return result

        return wrapper

    def count(self, key: str, n: int) -> None:
        self.counts[(self.episode, key)] += int(n)

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every `(owner, attr, name, before, after)` target, then restore."""
        saved = []
        try:
            for owner, attr, name, before, after in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, before, after))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # ---- analysis ----

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def aggregate(self, group_of) -> dict:
        """{group: {span name: [calls, total_s, self_s]}}, grouped by `group_of(episode)`."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        selfs = self.self_times()
        for name, s, e, ep, st in zip(self.names, self.starts, self.ends, self.episodes, selfs):
            row = out[group_of(ep)][name]
            row[0] += 1
            row[1] += e - s
            row[2] += st
        return out

    def write_csv(self, path, t0: float) -> None:
        """One line per span, times in seconds from `t0`."""
        with open(path, "w") as f:
            f.write("span,name,start_s,end_s,parent,episode\n")
            for i, (name, s, e, p, ep) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents, self.episodes)):
                f.write(f"{i},{name},{s - t0:.9f},{e - t0:.9f},{p},{ep}\n")
