"""Outside-in call tracer for the hslab package.

The tracer wraps, from outside the package, every public function and every
public method of the hslab modules, plus the constructors and arithmetic
operators of their classes.  Each wrapper counts its calls and times them
with ``perf_counter_ns``; predicates (``is_*``) are only counted.  A stack
of open frames gives each call its self time: its duration minus the time
of wrapped calls made inside it.

A function is wrapped under every ``hslab.*`` module name that binds it,
because callers reach it through their own module's binding: the sweep's
base engine calls ``hslab.iwasawa.harmonic_residual``, which patching
``hslab.harmonic`` alone would miss.  Calls are recorded under the name of
the defining module (``harmonic.harmonic_residual``) and, separately, per
binding site, so the calls made through one importing module can be told
apart.

Spans (name, parent, start, end) are kept in memory for the layers above the
arithmetic kernel and written out by the caller at the end.  ``uninstall``
puts every original object back; the benchmark checks this before each
untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("scalars", "cealg", "hermitian", "bundles", "algebroid",
           "harmonic", "iwasawa", "cli")

# Operators and constructors are the kernel's work even though their names
# are not public.
DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
           "__xor__")

# Calls into these modules are counted and timed but get no span record:
# there are millions of them per run.
NO_SPAN_MODULES = ("scalars", "cealg")
MAX_SPANS = 200_000

_MARK = "__perfbench_wrapped__"


class Tracer:
    """Per-process call statistics; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats = {}       # name -> [calls, total_ns, child_ns]
        self.via = {}         # (site, name) -> [calls, total_ns]
        self.spans = []       # (span_id, parent_id, name, start_ns, end_ns)
        self.dropped_spans = 0
        self._stack = []      # open frames: [child_ns, span_id]
        self._next_span = 1
        self._patches = []    # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {"hslab": importlib.import_module("hslab")}
        for short in MODULES:
            mods[short] = importlib.import_module("hslab." + short)
        wrapped = {}
        for site, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and _is_hslab(value):
                    self._patch(mod, attr, self._function_wrapper(value, site))
                elif (inspect.isclass(value) and _is_hslab(value)
                      and value.__module__ == mod.__name__):
                    self._wrap_class(value, wrapped)

    def _wrap_class(self, cls, done):
        if cls in done:
            return
        done[cls] = True
        owner = "%s.%s" % (_short(cls.__module__), cls.__qualname__)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = "%s.%s" % (owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if not inspect.isfunction(fn):
                    continue
                self._patch(cls, attr, type(raw)(self._wrapper(fn, name, None)))
            elif attr.startswith("is_") and inspect.isfunction(raw):
                self._patch(cls, attr, self._counter(raw, name))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrapper(raw, name, None))

    def _function_wrapper(self, fn, site):
        name = "%s.%s" % (_short(fn.__module__), fn.__qualname__)
        return self._wrapper(fn, name, None if site == _short(fn.__module__)
                             else (site, name))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrappers ------------------------------------------------------

    def _counter(self, fn, name):
        """Count-only wrapper for predicates (``is_*``).

        They are called millions of times and do almost nothing, so timing
        them would cost more than the calls; their time stays in the
        caller's self time.
        """
        stat = self.stats.setdefault(name, [0, 0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _wrapper(self, fn, name, via_key):
        stat = self.stats.setdefault(name, [0, 0, 0])
        via = self.via.setdefault(via_key, [0, 0]) if via_key else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        record_span = name.split(".", 1)[0] not in NO_SPAN_MODULES
        tracer = self
        push, pop = stack.append, stack.pop

        if not record_span and via is None:
            # the kernel's wrapper: millions of calls, so the least work
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0, 0]
                push(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    pop()
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += frame[0]
                    if stack:
                        stack[-1][0] += dt

            setattr(wrapper, _MARK, True)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = 0
            if record_span:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [0, span_id]
            push(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if via is not None:
                    via[0] += 1
                    via[1] += dt
                if stack:
                    stack[-1][0] += dt
                if record_span:
                    if len(spans) < MAX_SPANS:
                        spans.append((span_id, _parent_span(stack), name,
                                      start, end))
                    else:
                        tracer.dropped_spans += 1

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, name):
        calls, total, child = self.stats.get(name, (0, 0, 0))
        return (total - child) / 1e9

    def total_s(self, name):
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def via_site(self, site, name):
        calls, total = self.via.get((site, name), (0, 0))
        return calls, total / 1e9

    def call_counts(self):
        """Every recorded name with its call count (for determinism checks)."""
        out = {name: st[0] for name, st in self.stats.items() if st[0]}
        for (site, name), (calls, _) in self.via.items():
            if calls:
                out["%s<-%s" % (name, site)] = calls
        return out

    def dump(self):
        return {
            "stats": {name: {"calls": st[0], "total_s": st[1] / 1e9,
                             "self_s": (st[1] - st[2]) / 1e9}
                      for name, st in sorted(self.stats.items()) if st[0]},
            "via": {"%s<-%s" % (name, site): {"calls": v[0],
                                              "total_s": v[1] / 1e9}
                    for (site, name), v in sorted(self.via.items()) if v[0]},
            "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                       "start_ns": s[3], "end_ns": s[4]} for s in self.spans],
            "dropped_spans": self.dropped_spans,
        }


def _parent_span(stack):
    for frame in reversed(stack):
        if frame[1]:
            return frame[1]
    return 0


def _is_hslab(obj):
    return getattr(obj, "__module__", "").startswith("hslab.")


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def leftover_wrappers():
    """Names of hslab attributes that still hold a tracer wrapper."""
    found = []
    mods = [importlib.import_module("hslab")]
    mods += [importlib.import_module("hslab." + m) for m in MODULES]
    for mod in mods:
        for attr, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append("%s.%s" % (mod.__name__, attr))
            if inspect.isclass(value) and _is_hslab(value):
                for cattr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, _MARK, False):
                        found.append("%s.%s.%s" % (mod.__name__,
                                                   value.__qualname__, cattr))
    return found
