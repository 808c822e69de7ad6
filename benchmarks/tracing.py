"""Spans and call counts at mode2cap's layer boundaries, recorded from outside
the package by swapping module attributes for timing wrappers.

Each wrapper replaces the name a caller looks up at call time (for example
`mode2cap.analytic.exclusion_profile`, which `success_prob` resolves on every
call), so a function counts only when it is called through that name.  A name
that a later version of the package no longer has is skipped, and its count
reads 0.  Spans are kept in memory as flat arrays and written out once, when
the traced round has ended.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name).  One span name may cover several module
# attributes that are the same function imported into different modules.
TARGETS = (
    ("mode2cap.cli", "main", "cli.main"),
    ("mode2cap.cli", "sim_run", "sim.run"),
    ("mode2cap.cli", "plr", "analytic.plr"),
    ("mode2cap.analytic", "capacity", "analytic.capacity"),
    ("mode2cap.analytic", "plr", "analytic.plr"),
    ("mode2cap.analytic", "success_prob", "analytic.success_prob"),
    ("mode2cap.analytic", "repetition_noncollision_prob",
     "analytic.repetition_noncollision_prob"),
    ("mode2cap.analytic", "exclusion_profile", "link.exclusion_profile"),
    ("mode2cap.analytic", "overlap_distribution", "overlap.overlap_distribution"),
    ("mode2cap.analytic", "transmit_probability", "config.transmit_probability"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Records one span per wrapped call: name, start, end and parent span.

    Use as a context manager: entering swaps the wrappers in, leaving puts the
    original functions back.  Calls must not overlap in time except by
    nesting, which holds for a serial (one-worker) run.
    """

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        start, end, parent, names, stack = (
            self.start, self.end, self.parent, self.name, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, SPAN_NAMES.index(span)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, self seconds, and every duration.

        Self time is a span's duration minus the durations of its direct
        children; wrapped calls nest strictly, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros(dur.size)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        self_time = dur - covered
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            mask = a["name"] == i
            out[span] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": dur[mask],
            }
        return out

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())
