"""Spans around the package's public functions, and the per-sample probe.

Both are installed by replacing a public name in the namespace the
caller looks it up in (``isacsim.simulate.svd_denoise`` is the name
``simulate_spectrogram`` calls), so nothing under ``src/`` changes and
uninstalling restores the original objects.

Spans are kept in memory: (id, parent, sample, name, start, end, self,
error).  A span's self time is its duration minus the time its direct
children cover; the calls are single-threaded, so children nest inside
their parent and never overlap.  Spans opened under a sample span (one
spectrogram, one curve fit, one region trace) carry that span's id.
"""

from __future__ import annotations

import functools
import json
import time
import warnings
from collections import Counter, defaultdict

SAMPLE_SPANS = frozenset(
    {"simulate.spectrogram", "curvefit.fit_curve", "tradeoff.region"}
)


class _Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, module, attr, new):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self):
        while self._undo:
            module, attr, old = self._undo.pop()
            setattr(module, attr, old)


class SampleProbe(_Patches):
    """Times every ``simulate_spectrogram`` call and keeps gray and pmf.

    Installed in traced and untraced runs alike: it is the sample
    boundary the end-to-end latency is measured at.  ``group`` is the
    cycle count (third positional argument).  Calls are counted in
    ``self.ops``, which the caller may swap between timed and check jobs.
    """

    def __init__(self, ops, kind):
        super().__init__()
        self.records = []  # (gray, pmf) per call, in call order
        self.ops = ops
        self._kind = kind

    def install(self, module, attr):
        fn = getattr(module, attr)
        probe_self, kind = self, self._kind

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            group = args[2] if len(args) > 2 else kwargs["cycles"]
            with probe_self.ops.op(kind):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - t0
            probe_self.records.append((result.gray, result.pmf))
            probe_self.ops.latency[kind].append((group, seconds))
            return result

        self.replace(module, attr, probe)

    def take(self):
        taken = list(self.records)
        self.records.clear()
        return taken


class Tracer(_Patches):
    """Span recorder; ``wrap`` puts a span around one public name."""

    def __init__(self):
        super().__init__()
        self.spans = []
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = defaultdict(float)
        self.warnings = Counter()  # layer -> RuntimeWarnings issued under it
        self._stack = []  # open spans: [id, parent, sample, name, start, child_s]
        self._catch = None
        self._shown = set()

    def enter(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        sample = sid if name in SAMPLE_SPANS or parent is None else parent[2]
        frame = [sid, None if parent is None else parent[0], sample, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[4] = time.perf_counter()

    def exit(self, error=None):
        end = time.perf_counter()
        sid, parent, sample, name, start, child_s = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][5] += duration
        self.self_s[name] += self_s
        self.durations[name].append(duration)
        self.spans[sid] = (sid, parent, sample, name, start, end, self_s, error)

    def wrap(self, module, attr, name, measure=None):
        """Replace ``module.attr`` by a traced call; ``measure(tracer,
        args, result)`` may add to the counters after each call."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(type(exc).__name__)
                raise
            tracer.exit()
            if measure is not None:
                measure(tracer, args, result)
            return result

        self.replace(module, attr, traced)

    def wrap_class(self, module, attr, name):
        """Span ``<name>.build`` around construction and ``<name>.run``
        around the ``run`` method of a class looked up in ``module``."""
        cls = getattr(module, attr)
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                tracer.enter(f"{name}.build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.exit()

            def run(self, *args, **kwargs):
                tracer.enter(f"{name}.run")
                try:
                    return super().run(*args, **kwargs)
                finally:
                    tracer.exit()

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        self.replace(module, attr, Traced)

    def count_warnings(self):
        """Count every RuntimeWarning by the layer of the innermost open
        span.  Display is unchanged: each warning location still prints
        once, as under Python's default filter."""
        self._catch = warnings.catch_warnings()
        self._catch.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        show = warnings.showwarning

        def counting_show(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning):
                layer = self._stack[-1][3].split(".")[0] if self._stack else "harness"
                self.warnings[layer] += 1
            key = (category, filename, lineno)
            if key not in self._shown:
                self._shown.add(key)
                show(message, category, filename, lineno, file, line)

        warnings.showwarning = counting_show

    def restore(self):
        super().restore()
        if self._catch is not None:
            self._catch.__exit__(None, None, None)
            self._catch = None

    def sample_sum_errors(self):
        """Largest |duration - sum of self times in its subtree| over the
        sample spans: zero when every child span nests in its parent."""
        covered = defaultdict(float)
        for span in self.spans:
            covered[span[2]] += span[6]
        worst = 0.0
        for sid, _, sample, name, start, end, _, _ in self.spans:
            if sample == sid and name in SAMPLE_SPANS:
                worst = max(worst, abs((end - start) - covered[sid]))
        return worst

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, sample, name, start, end, self_s, error in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "sample": sample, "name": name,
                    "start": start, "end": end, "self_s": self_s, "error": error,
                }) + "\n")


def per_span_cost_s(calls=20000):
    """Measured cost of one span: a traced no-op minus a bare no-op."""
    def noop():
        return None

    class Holder:
        fn = staticmethod(noop)

    tracer = Tracer()
    tracer.wrap(Holder, "fn", "calibrate")
    traced = Holder.fn
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max((t1 - t0) - (t2 - t1), 0.0) / calls
