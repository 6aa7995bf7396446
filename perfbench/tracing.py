"""In-memory span recorder that wraps sgfcf's public functions from outside.

Each target is replaced at the module attribute its callers resolve (for
example ``sgfcf.model.truncated_svd``, which ``fit`` looks up at call time),
so the library itself is not changed. Spans carry a parent link; a span opened
on a worker thread with nothing open on that thread (the grid search pool)
is parented to the innermost span open on the installing thread. Spans are
appended under a lock and written out once, when the run ends.

The peak-RSS high-water mark only rises past its earlier maximum, so a
stage that peaks below an earlier one shows no rise. A sampler thread
therefore also reads the resident set every RSS_SAMPLE_S while tracing is
on, which gives each span's own peak growth over its entry value.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import threading
import time
from dataclasses import asdict, dataclass, field

# Module attributes to wrap. A function bound in several modules is wrapped
# in each, because each caller resolves its own module's name.
TARGETS = {
    "sgfcf.dataset": ("ingest", "split"),
    "sgfcf.model": (
        "build_graph", "g2n_normalize", "truncated_svd", "homophilic_ratio_all",
        "map_homo_to_beta", "fit", "score_users", "score_user", "recommend",
    ),
    "sgfcf.evaluation": ("build_graph", "g2n_normalize", "truncated_svd", "fit", "evaluate", "grid_search"),
    "sgfcf.filters": ("homophilic_ratio_all",),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    maxrss_before_kb: int
    maxrss_after_kb: int
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _svd_counts(bound: inspect.BoundArguments, result) -> dict:
    """Work the randomized SVD does, computed from its arguments with the
    same loop as ``truncated_svd`` (not counted inside the library)."""
    args = bound.arguments
    if not {"norm", "K", "oversample", "power_iters"} <= args.keys():
        return {}
    shape = args["norm"].shape
    mindim = min(shape)
    width = min(args["K"] + args["oversample"], mindim)
    blocks, total = 1, width
    for _ in range(args["power_iters"]):
        if total >= mindim:
            break
        blocks += 1
        total += width
    # one A @ Omega, an A^T and an A product per extra block, one A^T @ basis
    return {"basis_cols_computed": blocks * width, "sparse_products_computed": 2 * blocks}


_COUNTS = {
    "dataset.ingest": lambda bound, r: {"pairs": len(r)},
    "graph.build_graph": lambda bound, r: {"nnz": int(r.nnz)},
    "spectral.truncated_svd": _svd_counts,
    "model.score_users": lambda bound, r: {"scores": int(r.size)},
    "model.score_user": lambda bound, r: {"scores": int(r.size)},
    "evaluation.evaluate": lambda bound, r: {"users_evaluated": int(r.users_evaluated)},
    "evaluation.grid_search": lambda bound, r: {"combos": len(r.table)},
}


RSS_SAMPLE_S = 0.005
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_KB


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._patches: list = []
        self.bookkeeping_s = 0.0  # time spent in the wrappers themselves
        self.rss_samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample_rss, name="rss-sampler", daemon=True)

    def _sample_rss(self) -> None:
        while True:
            self.rss_samples.append((time.perf_counter(), _rss_kb()))
            if self._stop.wait(RSS_SAMPLE_S):
                return

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name: str):
        signature = inspect.signature(original)
        counter = _COUNTS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            rss_before = _maxrss_kb()
            error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, parent, name, threading.get_ident(), start, end,
                            rss_before, _maxrss_kb(), error)
                if error is None and counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound, result)
                with self._lock:
                    self.spans.append(span)
                    self.bookkeeping_s += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def install(self) -> None:
        self._local.stack = self._home_stack
        self._sampler.start()
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                name = f"{original.__module__.removeprefix('sgfcf.')}.{original.__name__}"
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._stop.set()
        self._sampler.join()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing_targets": self.missing, "spans": [asdict(s) for s in self.spans]}, fh)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _peak_rise_kb(samples: list[tuple[float, int]], times: list[float], span: Span) -> int:
    """Largest sampled RSS inside the span minus the last sample before it."""
    lo, hi = bisect.bisect_left(times, span.start), bisect.bisect_right(times, span.end)
    if lo == 0 or hi <= lo:
        return 0
    return max(0, max(rss for _, rss in samples[lo:hi]) - samples[lo - 1][1])


def summarize(spans: list[Span], rss_samples: list[tuple[float, int]]) -> dict:
    """Per span name: calls, total seconds, self seconds (total minus the
    part of each span its children cover), summed counts, and over single
    calls the largest rise of the peak-RSS high-water mark and the largest
    sampled RSS growth."""
    times = [t for t, _ in rss_samples]
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                                         "rss_hwm_rise_kb": 0, "rss_peak_rise_kb": 0, "counts": {}})
        kids = [(c.start, c.end) for c in children.get(span.id, [])]
        row["calls"] += 1
        row["seconds"] += span.seconds
        row["self_seconds"] += span.seconds - _covered(kids, span.start, span.end)
        row["rss_hwm_rise_kb"] = max(row["rss_hwm_rise_kb"], span.maxrss_after_kb - span.maxrss_before_kb)
        row["rss_peak_rise_kb"] = max(row["rss_peak_rise_kb"], _peak_rise_kb(rss_samples, times, span))
        for key, value in span.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return out
