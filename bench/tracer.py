"""Span recording around birkhoff's layer boundaries, installed from outside.

The recorder rebinds the module and class attributes through which each
layer is reached at call time, so the program's own files stay untouched.
Spans are kept in compact arrays and written out once, at the end of a run;
self time is derived afterwards as a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

#: array typecodes of the span columns, in file order
_COLUMNS = (("name", "H"), ("parent", "q"), ("item", "q"), ("start", "q"), ("end", "q"))


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and item id."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.columns = {col: array(code) for col, code in _COLUMNS}
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, hook=None):
        """fn recorded as span `name`; hook(counts, args, kwargs, result, exc) counts work."""
        name_id = self._name_id(name)
        cols = self.columns
        names_col, parents, items = cols["name"], cols["parent"], cols["item"]
        starts, ends = cols["start"], cols["end"]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names_col.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0)
            stack.append(idx)
            result = exc = None
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc)

        return traced

    def install(self, targets, modules):
        """Rebind every target; returns the undo list for uninstall().

        A target is (span name, owner, attribute, hook).  For a module owner,
        every module in `modules` that binds the same function object under
        any name is rebound too, since callers resolve imported names in
        their own module's globals.  For a class owner, the class attribute
        is replaced, keeping classmethods as classmethods.
        """
        undo = []
        for name, owner, attr, hook in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                undo.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hook)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, alias, original))
                        setattr(module, alias, wrapped)
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def __len__(self):
        return len(self.columns["start"])

    def dump(self, path):
        with open(path, "wb") as fh:
            for col, _ in _COLUMNS:
                self.columns[col].tofile(fh)


def load_spans(path, count: int) -> dict[str, array]:
    """Read back the columns written by SpanRecorder.dump."""
    columns = {}
    with open(path, "rb") as fh:
        for col, code in _COLUMNS:
            data = array(code)
            data.fromfile(fh, count)
            columns[col] = data
    return columns


def self_times(columns) -> tuple[list[int], list[int]]:
    """Per-span (self ns, duration ns).

    Self time is the duration minus the part of the span's interval covered
    by its children.  Spans come from one thread, so children of one span
    never overlap each other; each child is clipped to its parent's interval.
    """
    parents, starts, ends = columns["parent"], columns["start"], columns["end"]
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0] * len(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[idx], starts[parent])
            hi = min(ends[idx], ends[parent])
            if hi > lo:
                covered[parent] += hi - lo
    return [d - c for d, c in zip(durations, covered)], durations


def layer_totals(names, columns) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and total seconds."""
    selfs, durations = self_times(columns)
    totals = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    for name_id, own, dur in zip(columns["name"], selfs, durations):
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["self_s"] += own * 1e-9
        entry["total_s"] += dur * 1e-9
    return totals


# -- birkhoff's layer boundaries ----------------------------------------------

def _count_output_bytes(counts, args, kwargs, result, exc):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--output" in argv:
        path = argv[argv.index("--output") + 1]
        if os.path.exists(path):
            counts["cli.output_bytes"] += os.path.getsize(path)


def _count_term_pairs(counts, args, kwargs, result, exc):
    f, g = args[:2]
    counts["polyalg.poisson_bracket.term_pairs"] += len(f) * len(g)


def birkhoff_targets():
    """(span name, owner, attribute, hook) for every traced layer boundary."""
    from birkhoff import cli, closedform, normalform, polyalg, rtbpmodel

    def count_normal_form(counts, args, kwargs, result, exc):
        if result is not None:
            counts["normalform.generator_terms"] += sum(
                len(part) for part in result.generating.parts.values())
        elif isinstance(exc, normalform.ResonanceError):
            counts["normalform.resonance_errors"] += 1

    return [
        ("cli.main", cli, "main", _count_output_bytes),
        ("rtbpmodel.scan_omega1", rtbpmodel, "scan_omega1", None),
        ("rtbpmodel.stability_verdict", rtbpmodel, "stability_verdict", None),
        ("rtbpmodel.d2_eval", rtbpmodel, "d2_eval", None),
        ("rtbpmodel.coefficients", rtbpmodel, "coefficients", None),
        ("rtbpmodel.coefficient_series", rtbpmodel, "coefficient_series", None),
        ("closedform.d2_closed", closedform, "d2_closed", None),
        ("closedform.d2_expanded", closedform, "d2_expanded", None),
        ("polyalg.from_json_dict", polyalg.GradedHamiltonian, "from_json_dict", None),
        ("polyalg.complexify", polyalg.GradedHamiltonian, "complexify", None),
        ("polyalg.poisson_bracket", polyalg, "poisson_bracket", _count_term_pairs),
        ("normalform.normalize", normalform, "normalize", count_normal_form),
        ("normalform.report_to_json", normalform.NormalFormReport, "to_json_dict", None),
    ]


def install_birkhoff(recorder: SpanRecorder):
    """Wrap every boundary of birkhoff_targets() in recorder spans."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "birkhoff" or n.startswith("birkhoff."))]
    return recorder.install(birkhoff_targets(), modules)
