"""Span tracer that times qmyo's layers from outside the package.

Each target function is replaced at every module attribute that refers to
it, which is the name its callers look it up by: ``decode_features`` is
wrapped as ``qmyo.control.decode_features``, ``qmyo.experiment.decode_features``
and ``qmyo.cli.decode_features`` alike, so no source file is edited.

A span records name, start, end, parent span and pass id; spans stay in
compact arrays in memory and are written out once, when the run ends. A
span's self time is its duration minus the time its child spans cover, so
the self times of one pass add up to the pass span's duration exactly.
"""

import importlib
import sys
import time
from array import array

import numpy as np

PASS_SPAN = "bench.pass"


class Tracer:
    """Wraps qmyo functions while installed and records spans and per-pass counters."""

    def __init__(self, targets):
        """Build a wrapper for each ``(qualified name, mode)``; mode is "span", "keep" or "count".

        "keep" spans also hold on to each call's arguments and result until
        the pass ends, for item and byte counts read outside the timed
        region. "count" only counts calls; its time stays with the caller's
        span. A target missing from the package is listed in ``absent``.
        """
        self.names = [PASS_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.absent = []
        self._stack = [-1]
        self._pass = -1
        self._counters = {}
        self._kept = {}
        self._patches = []
        self.pass_counts = []
        for qualified, mode in targets:
            module_name, _, attr = qualified.rpartition(".")
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.absent.append(qualified)
                continue
            name = qualified.removeprefix("qmyo.")
            if mode == "count":
                wrapper = self._counting(original, name)
            else:
                wrapper = self._spanning(original, name, mode == "keep")
            for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "qmyo"]:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def install(self):
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def _name_index(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _spanning(self, fn, name, keep):
        nid = self._name_index(name)
        kept = self._kept.setdefault(name, []) if keep else None
        names, parents, passes = self.name_id, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(self._pass)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if kept is not None:
                kept.append((args, kwargs, out))
            return out

        return wrapper

    def _counting(self, fn, name):
        cell = self._counters.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- passes -----------------------------------------------------------

    def begin_pass(self):
        self._pass += 1
        for cell in self._counters.values():
            cell[0] = 0
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(-1)
        self.pass_id.append(self._pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

    def end_pass(self):
        """Close the pass span; returns the calls and arguments kept in the pass."""
        idx = self._stack.pop()
        self.end[idx] = time.perf_counter()
        self.pass_counts.append({k: c[0] for k, c in self._counters.items()})
        kept = {k: list(v) for k, v in self._kept.items()}
        for records in self._kept.values():
            records.clear()
        return kept

    # -- results ----------------------------------------------------------

    def pass_summary(self, pass_index):
        """{span name: (calls, self seconds)} for one pass, plus the pass length."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        passes = np.frombuffer(self.pass_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        mine = passes == pass_index
        calls = np.bincount(ids[mine], minlength=len(self.names))
        self_s = np.bincount(ids[mine], weights=own[mine], minlength=len(self.names))
        summary = {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)
        }
        root = np.flatnonzero(mine & (ids == 0))[0]
        return summary, float(dur[root])

    def child_calls(self, pass_index, child, parent):
        """Number of ``child`` spans opened directly inside a ``parent`` span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        passes = np.frombuffer(self.pass_id, dtype=np.int32)
        if child not in self.names or parent not in self.names:
            return 0
        sel = (passes == pass_index) & (ids == self.names.index(child)) & (parents >= 0)
        return int(np.sum(ids[parents[sel]] == self.names.index(parent)))

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
