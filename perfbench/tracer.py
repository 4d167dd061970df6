"""Per-layer tracing by wrapping the package's public functions from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
selected functions and methods of the ``lumigather`` modules with wrappers and
``Tracer.remove`` puts the originals back; ``verify_removed`` proves that every
module and class attribute is again the exact object it was before.

A span is one wrapped call: its name, start, end and parent (the span open
below it on the call stack).  Spans are aggregated as they close, so memory
stays flat: per span name the call count, the total duration and the self
time, which is the duration minus the time its child spans cover.  A span
whose parent is ``None`` is a root span; traced wall time that no root span
covers is the unattributed share (the benchmark's own bookkeeping).

Leaf functions that run millions of times (``format_rat``, ``parse_rat``,
``SqrtSum.interval``) get counting wrappers without timers, so their time
stays in the caller's self time and the overhead stays bounded.
"""

import sys
import time
from collections import Counter

# (module, attribute path, span name).  A dotted path names a method.
SPANS = (
    ("fuzz", "random_scenario", "fuzz.scenario"),
    ("fuzz", "random_points", "fuzz.points"),
    ("fuzz", "random_collinear_points", "fuzz.points"),
    ("engine", "run", "engine.run"),
    ("engine", "Trace.dumps", "engine.trace_dumps"),
    ("engine", "Trace.parse", "engine.trace_parse"),
    ("algorithms", "AlgorithmSpec.__call__", "algorithms.eval"),
    ("configuration", "Configuration.__init__", "configuration.build"),
    ("geometry", "convex_hull", "geometry.hull"),
    ("geometry", "is_on_lds", "geometry.on_lds"),
    ("geometry", "min_edge_targets", "geometry.min_edges"),
    ("geometry", "selected_min_edges", "geometry.min_edges"),
    ("geometry", "nearest_vertex", "geometry.nearest_vertex"),
    ("geometry", "hull_center", "geometry.center"),
    ("geometry", "hull_center_of", "geometry.center"),
    ("geometry", "hull_area_twice", "geometry.area"),
    ("geometry", "is_contractible", "geometry.contractible"),
    ("geometry", "is_symmetric", "geometry.symmetric"),
    ("patterns", "classify_line", "patterns.classify_line"),
    ("potentials", "potential_f", "potentials.potential"),
    ("potentials", "potential_g", "potentials.potential"),
    ("potentials", "lex_less", "potentials.compare"),
    ("checker", "TraceData.__init__", "checker.tracedata"),
    ("checker", "validate_trace", "checker.replay"),
    ("checker", "check_cycle_snapshot", "checker.cycle"),
    ("checker", "check_onlds_switch", "checker.switch"),
    ("checker", "check_gathered", "checker.gather"),
    ("checker", "check_monotone", "checker.monotone"),
    ("checker", "enumerate_unfair", "checker.enumerate"),
)

COUNTS = (
    ("rational", "format_rat", "rational.format_rat"),
    ("rational", "parse_rat", "rational.parse_rat"),
    ("potentials", "SqrtSum.interval", "potentials.interval"),
)


def _package_modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "lumigather" or name.startswith("lumigather."))
    }


def attribute_snapshot():
    """Identity of every attribute of every package module and class."""
    snap = {}
    for mname, mod in _package_modules().items():
        for attr, obj in vars(mod).items():
            snap[(mname, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mname:
                for cattr, cobj in vars(obj).items():
                    snap[(mname, attr, cattr)] = cobj
    return snap


def verify_removed(before):
    """Names whose attribute differs from ``before`` (empty when clean)."""
    after = attribute_snapshot()
    changed = [k for k in before.keys() | after.keys() if before.get(k) is not after.get(k)]
    return sorted(".".join(k) for k in changed)


class Tracer:
    """Installs span and counting wrappers and aggregates what they record."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total seconds, self seconds]
        self.counts = Counter()
        self.interval_bits = Counter()
        self.undecided = 0
        self.eval_calls = Counter()  # "engine" / "checker" / "other"
        self.config_distinct = 0  # distinct entry tuples, summed per item
        self.root_s = 0.0
        self._stack = []  # child-time accumulators of the open spans
        self._depth = Counter()  # open spans per layer
        self._item_configs = set()
        self._patches = []

    # -- per-item bookkeeping ----------------------------------------------

    def end_item(self):
        """Close the distinct-configuration scope of one verified item."""
        self.config_distinct += len(self._item_configs)
        self._item_configs = set()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        """Timed wrapper; ``hook(args)`` may return a callback for the result."""
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            on_result = hook(args) if hook is not None else None
            depth[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                depth[layer] -= 1
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name, fn, hook=None):
        """Untimed wrapper that counts calls; ``hook(args, result)`` sees each."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _eval_context(self, args):
        if self._depth["checker"]:
            self.eval_calls["checker"] += 1
        elif self._depth["engine"]:
            self.eval_calls["engine"] += 1
        else:
            self.eval_calls["other"] += 1
        return None

    def _config_built(self, args):
        cfg = args[0]

        def record(_):
            self._item_configs.add(cfg.entries)

        return record

    def _compared(self, args):
        def record(result):
            if result.name == "UNDECIDED":
                self.undecided += 1

        return record

    def _interval(self, args, result):
        self.interval_bits[args[1]] += 1

    # -- install / remove ----------------------------------------------------

    def _patch(self, mname, path, make):
        mods = _package_modules()
        owner = mods["lumigather." + mname]
        if "." in path:
            cname, attr = path.split(".")
            cls = getattr(owner, cname)
            raw = vars(cls)[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = make(fn)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)
            return
        fn = getattr(owner, path)
        wrapped = make(fn)
        # ``from .x import f`` copies the binding: replace every copy
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)

    def install(self):
        import lumigather  # noqa: F401  (loads every layer module)

        hooks = {
            "algorithms.eval": self._eval_context,
            "configuration.build": self._config_built,
            "potentials.compare": self._compared,
        }
        for mname, path, name in SPANS:
            self._patch(mname, path, lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        counter_hooks = {"potentials.interval": self._interval}
        for mname, path, name in COUNTS:
            self._patch(
                mname, path, lambda fn, n=name: self._counter(n, fn, counter_hooks.get(n))
            )

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, prefix):
        """Self seconds of every span whose name is ``prefix`` or under it."""
        return sum(
            s[2]
            for n, s in self.stats.items()
            if n == prefix or n.startswith(prefix + ".")
        )
