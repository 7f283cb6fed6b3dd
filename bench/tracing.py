"""Spans around permap's public functions, installed from outside the package.

The benchmark wraps each public function of the traced modules and
installs the wrapper at every name a caller looks up: the defining
module's globals (``exact.pmf`` reaches ``largest_poly`` there), and any
other permap module that imported the function by name (``cli`` holds its
own ``summarize``).  Each call records one span (name, start, end, parent)
in memory, plus the peak growth of resident memory during the call.  Nothing in
permap is edited; item by item, a later change may rename or delete what
is wrapped here and the benchmark keeps running.

Grow versus reuse is decided from the request stream the wrappers see,
never from the engines' private memo tables: a call grows when its n
exceeds every earlier n of the same function for the same (kind, side, r)
in the process.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import threading
import time

# Public functions called once per element inside a kernel loop (a window
# update, one enumerated mapping, one integrand point).  A wrapper there
# would time the wrapper, so they stay unwrapped; the kernel that calls
# them carries their time as self time.
INNER_LOOP = {"exact.promote", "exact.demote", "oracle.decompose",
              "asymptotics.exp_integral"}
# Introspection the benchmark itself calls.
UNTRACED = {"exact.memo_stats", "exact.clear_memo"}

LAYERS = ("exact", "ktp", "stats", "asymptotics", "oracle", "cli")

# Engines whose calls are classified as grow or reuse.
TABLE_ENGINES = ("exact.pmf", "exact.pmf_float", "ktp.pmf_from_tables",
                 "ktp.pmf_from_tables_float")

# Functions whose metrics the benchmark reports (all wrapped ones go to
# the spans file): the table engines, and the layers an open item targets.
REPORTED = TABLE_ENGINES + (
    "cli.main", "stats.summarize", "oracle.enumerate_pmf", "exact.largest_poly",
    "exact.smallest_poly", "ktp.delta", "asymptotics.constants_catalog",
    "asymptotics.moment_L", "asymptotics.moment_S", "asymptotics.median_xi")
FUNCTION_METRICS = ("calls", "busy_s", "p50_ms", "tail_ms", "peak_alloc_mb")
ENGINE_METRICS = ("grow_calls", "grow_s", "reuse_s")

SAMPLE_INTERVAL = 0.002  # seconds between resident-memory samples

# Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float | None, float, int]:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value, sample count) using the nearest-rank rule:
    the p-th percentile is the sample at rank ceil(p/100 * count), and the
    samples beyond it are the count minus that rank.  With too few samples
    for any rung the percentile is None and the value 0.0.
    """
    ordered = sorted(samples)
    count = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * count))
        if count - rank >= TAIL_BEYOND:
            best = (p, ordered[rank - 1])
    if best is None:
        return None, 0.0, count
    return best[0], best[1], count


class GrowClassifier:
    """Classifies each table request as grow (new largest n for its key) or reuse."""

    def __init__(self):
        self._top: dict[tuple, int] = {}

    def classify(self, key: tuple, n: int) -> bool:
        top = self._top.get(key)
        if top is None or n > top:
            self._top[key] = n
            return True
        return False


def engine_key(bound: inspect.BoundArguments) -> tuple[tuple, int]:
    """(kind, side, r) key and n of a table-engine call; ktp is permutations only."""
    args = bound.arguments
    kind = getattr(args.get("kind"), "value", "permutation")
    return (kind, args["side"].value, args["r"]), args["n"]


class RssSampler:
    """Resident set size now, and its peak since the last reset.

    A thread samples /proc/self/statm every SAMPLE_INTERVAL seconds; reads at
    span boundaries add exact samples.  This stands in for tracemalloc,
    which tracks every Python and numpy allocation and slowed the
    map-tables workload about tenfold.  Freed blocks that the allocator
    keeps do not lower the reading, so it is an upper bound on live bytes.
    """

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._peak = self.rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def rss(self) -> int:
        return int(os.pread(self._fd, 64, 0).split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL):
            value = self.rss()
            with self._lock:
                self._peak = max(self._peak, value)

    def read(self) -> tuple[int, int]:
        value = self.rss()
        with self._lock:
            self._peak = max(self._peak, value)
            return value, self._peak

    def reset_peak(self) -> None:
        value = self.rss()
        with self._lock:
            self._peak = value

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


class Span:
    """One call of a wrapped function; also its frame while the call runs."""

    __slots__ = ("name", "parent", "grow", "outer", "start", "end", "base", "high",
                 "child_s")

    def __init__(self, name: str, parent: int, grow: bool | None, outer: bool, base: int):
        self.name, self.parent, self.grow, self.outer = name, parent, grow, outer
        self.start = self.end = self.child_s = 0.0
        self.base = self.high = base

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; one per traced process."""

    def __init__(self, clock=time.perf_counter, memory: RssSampler | None = None):
        self.clock = clock
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []       # indices of the spans now running
        self._active: dict[str, int] = {}  # running calls per name

    def _memory(self) -> tuple[int, int]:
        return self.memory.read() if self.memory is not None else (0, 0)

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in TABLE_ENGINES else None
        grow = GrowClassifier()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            grows = None
            if signature is not None:
                grows = grow.classify(*engine_key(signature.bind(*args, **kwargs)))
            current, peak = self._memory()
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0:
                self.spans[parent].high = max(self.spans[parent].high, peak)
            if self.memory is not None:
                self.memory.reset_peak()
            span = Span(name, parent, grows, self._active.get(name, 0) == 0, current)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._active[name] = self._active.get(name, 0) + 1
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._active[name] -= 1
                self._stack.pop()
                span.high = max(span.high, self._memory()[1])
                if parent >= 0:
                    outer = self.spans[parent]
                    outer.high = max(outer.high, span.high)
                    outer.child_s += span.duration

        return traced

    # -- reports ---------------------------------------------------------

    def function_metrics(self, names) -> tuple[dict[str, float], dict[str, str]]:
        """Metrics per function name, and the label of each tail percentile.

        Every name in ``names`` is reported, called or not; functions called
        but not named are reported too.
        """
        by_name: dict[str, list[Span]] = {name: [] for name in names}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        out: dict[str, float] = {}
        labels: dict[str, str] = {}
        for name, spans in by_name.items():
            durations = [s.duration for s in spans]
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.busy_s"] = sum(s.duration for s in spans if s.outer)
            out[f"{name}.p50_ms"] = statistics.median(durations) * 1e3 if spans else 0.0
            pct, value, count = tail_percentile(durations)
            out[f"{name}.tail_ms"] = value * 1e3
            labels[name] = (f"p{pct:g} of {count}" if pct is not None
                            else f"none ({count} calls < {2 * TAIL_BEYOND})")
            out[f"{name}.peak_alloc_mb"] = max((s.high - s.base for s in spans),
                                               default=0) / 2**20
            if name in TABLE_ENGINES:
                grown = [s.duration for s in spans if s.grow]
                out[f"{name}.grow_calls"] = len(grown)
                out[f"{name}.grow_s"] = sum(grown)
                out[f"{name}.reuse_s"] = sum(durations) - sum(grown)
        return out, labels

    def layer_self_s(self) -> dict[str, float]:
        """Span time of each module minus the time of its child spans."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for span in self.spans:
            key = f"{span.name.split('.')[0]}.self_s"
            out[key] = out.get(key, 0.0) + span.duration - span.child_s
        return out

    def top_busy_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": None if s.parent < 0 else s.parent,
                 "peak_alloc_bytes": s.high - s.base, "grow": s.grow} for s in self.spans]


def public_functions(module, layer: str):
    """(qualified name, function) for each public function defined in module."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue  # imported from elsewhere; wrapped in its own module
        name = f"{layer}.{attr}"
        if name in INNER_LOOP or name in UNTRACED:
            continue
        yield name, obj


def install(wrappers: dict[str, tuple]) -> int:
    """Rebind every name that refers to an original function to its wrapper.

    wrappers maps qualified name -> (original, wrapper).  Every loaded module
    of permap is searched, so names imported elsewhere are covered.
    Returns the number of bindings replaced.
    """
    replace = {id(orig): wrapper for orig, wrapper in wrappers.values()}
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "permap" or mod_name.startswith("permap.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                namespace[attr] = wrapper
                bound += 1
    return bound
