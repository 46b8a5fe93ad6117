"""In-memory span tracer that instruments tlsq from outside the library.

Each public function of interest is wrapped at every module attribute that is
bound to it, because `from .x import f` copies the binding into the importing
module: wrapping only `tlsq.solver.solve_subsampled` would miss the calls made
through `tlsq.experiments` and `tlsq.cli`. Module globals are looked up at
call time, so the same scan also catches calls made inside the defining
module (for example `t_product` calling `from_fourier`).

Every call records a span (name, start, end, parent, thread, failed, extra)
on a per-thread stack; spans are kept in memory and summarised or written out
after the run. A span's self time is its duration minus the durations of its
children, which always run on the same thread. Worker threads of the
replicate pool start with an empty stack, so under TLSQ_THREADS=2 their spans
are roots of their own thread and per-layer self times are summed over both
threads; only the main thread's self times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    failed: bool
    extra: tuple | None


# (defining module, function, span name).
TARGETS = (
    ("cli", "main", "cli.main"),
    ("experiments", "run_experiment", "experiments.driver"),
    ("experiments", "run_mls_comparison", "experiments.driver"),
    ("experiments", "gen_design", "experiments.gen_design"),
    ("experiments", "gen_response", "experiments.gen_response"),
    ("experiments", "compute_metrics", "experiments.compute_metrics"),
    ("experiments", "write_report", "experiments.write_report"),
    ("experiments", "build_distribution", "sampling.build_distribution"),
    ("sampling", "draw_plan", "sampling.draw_plan"),
    ("solver", "validate_design", "solver.validate_design"),
    ("solver", "solve_ols", "solver.solve_ols"),
    ("solver", "solve_subsampled", "solver.solve_subsampled"),
    ("solver", "objective", "solver.objective"),
    ("stats", "variance_report", "stats.variance_report"),
    ("stats", "conditional_variance", "stats.conditional_variance"),
    ("stats", "unconditional_variance", "stats.unconditional_variance"),
    ("tensor", "thin_t_svd", "tensor.thin_t_svd"),
    ("tensor", "from_fourier", "tensor.from_fourier"),
    ("tensor", "t_product", "tensor.t_product"),
    ("tensor", "bcirc", "tensor.bcirc"),
    ("tensor", "read_tensor", "tensor.read_tensor"),
    ("tensor", "write_tensor", "tensor.write_tensor"),
)

# Span name -> (what to keep from the call's result, how it becomes counters
# after the run). Keeping is a reference or an attribute read, so counting
# costs the traced parent span nothing.
OBSERVERS = {
    "sampling.draw_plan": (
        lambda plan: plan.indices,
        lambda rows: (len(set(rows.tolist())), len(rows)),  # (unique rows, tau)
    ),
    "tensor.read_tensor": (lambda array: array.nbytes, lambda nbytes: (nbytes,)),
}


def _counters(span):
    return None if span.extra is None else OBSERVERS[span.name][1](span.extra)


class Tracer:
    """Collects spans while installed; `install()` patches, `uninstall()` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.patched: list[tuple[str, str, str]] = []  # (module, attribute, span name)
        self._restore: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func, name):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        keep = OBSERVERS[name][0] if name in OBSERVERS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident(), True, None)
                )
                raise
            end = clock()
            stack.pop()
            extra = keep(result) if keep else None
            # list.append is atomic under the interpreter lock, so worker threads
            # may record spans concurrently without a lock.
            spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), False, extra)
            )
            return result

        return functools.wraps(func)(traced)

    def install(self) -> None:
        """Wrap every TARGETS function at every tlsq module attribute bound to it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "tlsq" or name.startswith("tlsq."))
        }
        for module, attr, span_name in TARGETS:
            original = getattr(modules[f"tlsq.{module}"], attr)
            wrapper = self._wrap(original, span_name)
            for mod_name, mod in sorted(modules.items()):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
                        self.patched.append((mod_name, key, span_name))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._replace(extra=_counters(span))._asdict()) + "\n")


def summarize(spans, main_thread: int) -> dict:
    """Per-name self time, calls, failures and observer totals over `spans`.

    Also returns the self time summed over all spans and over the main
    thread's spans; the latter equals the total duration of the main thread's
    root spans.
    """
    names = {s.id: s.name for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "failed": 0, "extra": None})
    calls_under = defaultdict(int)  # (name, parent name) -> calls
    self_all = self_main = 0.0
    for s in spans:
        own = (s.end - s.start) - child_time[s.id]
        entry = stats[s.name]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["failed"] += int(s.failed)
        counters = _counters(s)
        if counters is not None:
            prev = entry["extra"]
            entry["extra"] = counters if prev is None else tuple(a + b for a, b in zip(prev, counters))
        if s.parent is not None:
            calls_under[(s.name, names[s.parent])] += 1
        self_all += own
        if s.thread == main_thread:
            self_main += own
    return {
        "layers": dict(stats),
        "calls_under": dict(calls_under),
        "self_sum_s": self_all,
        "main_self_sum_s": self_main,
    }
