"""In-memory span tracer for the traced run.

Each wrapped call is a span: name, start, end and the span that caused it.
Stacks are kept per thread.  A span's self time is its duration minus the
part of its interval that its child spans cover; children on other threads
(the replicate executor's workers) may overlap, so their intervals are
merged before they are subtracted.

Per (name, caller) the tracer keeps calls, total and self time for every
call.  It keeps single spans only for the first SPAN_CAP calls of a name:
``Window.__contains__`` alone runs about 3.4 million times on presets-serial.
Everything stays in memory until :meth:`Tracer.write` at the end of the run.
"""

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

SPAN_CAP = 100_000

_now = time.perf_counter_ns
_cpu = time.thread_time_ns


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []
        self.agg = {}  # (name, caller) -> [calls, total_ns, self_ns]
        self.kept = defaultdict(int)
        self.spans = []  # (id, parent id, name, start_ns, end_ns)
        self.counters = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(st)
            self._local.state = st
            return st

    # A frame is [name, start_ns, child_ns, id, parent frame, foreign intervals].
    def _open(self, name, adopt=None):
        st = self._state()
        stack = st.stack
        frame = [name, 0, 0, next(self._ids), stack[-1] if stack else adopt, None]
        stack.append(frame)
        frame[1] = _now()
        return st, frame

    def _close(self, st, frame):
        end = _now()
        stack = st.stack
        stack.pop()
        name, start, child, sid, parent, foreign = frame
        dur = end - start
        if foreign:
            child += _covered(foreign, start, end)
        if parent is None:
            caller, pid = "", 0
        else:
            caller, pid = parent[0], parent[3]
            if stack and stack[-1] is parent:
                parent[2] += dur
            else:
                with self._lock:
                    if parent[5] is None:
                        parent[5] = []
                    parent[5].append((start, end))
        key = (name, caller)
        agg = st.agg.get(key)
        if agg is None:
            st.agg[key] = [1, dur, dur - child]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
        if st.kept[name] < SPAN_CAP:
            st.kept[name] += 1
            st.spans.append((sid, pid, name, start, end))
        return dur

    def wrap(self, name, fn, name_of=None, count=None):
        """Span around every call of fn.

        name_of(args, kwargs) names the span per call instead of name;
        count = (counter, f) adds f(result) to the counter after each call.
        """
        opn, cls = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, frame = opn(name if name_of is None else name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                cls(st, frame)
            if count is not None:
                st.counters[count[0]] += count[1](result)
            return result

        return traced

    def wrap_executor(self, name, fn):
        """Span around a replicate executor ``fn(sampler, evaluate, width, R,
        rng, threads)``.

        Its sampler and evaluate calls become child spans, adopted across
        worker threads.  Counters: ``rows`` (R summed over calls), ``busy_ns``
        (thread CPU time inside sampler and evaluate, over all threads) and
        ``capacity_ns`` (call duration times threads).
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            st, frame = self._open(name)
            try:
                a["sampler"] = self._busy(name, "sampler", a["sampler"], frame)
                a["evaluate"] = self._busy(name, "evaluate", a["evaluate"], frame)
                return fn(*bound.args, **bound.kwargs)
            finally:
                dur = self._close(st, frame)
                st.counters[name + ".rows"] += int(a["R"])
                st.counters[name + ".capacity_ns"] += dur * max(1, int(a["threads"]))

        return traced

    def _busy(self, name, role, fn, parent):
        span = f"{name}.{role}"
        busy = name + ".busy_ns"
        opn, cls = self._open, self._close

        def traced(arg):
            st, frame = opn(span, adopt=parent)
            t = _cpu()
            try:
                return fn(arg)
            finally:
                st.counters[busy] += _cpu() - t
                cls(st, frame)

        return traced

    # -- results -------------------------------------------------------------

    def totals(self):
        """name -> [calls, total_ns, self_ns], summed over callers and threads."""
        out = defaultdict(lambda: [0, 0, 0])
        for st in self._states:
            for (name, _), (calls, total, self_ns) in st.agg.items():
                t = out[name]
                t[0] += calls
                t[1] += total
                t[2] += self_ns
        return dict(out)

    def counters(self):
        out = defaultdict(int)
        for st in self._states:
            for k, v in st.counters.items():
                out[k] += v
        return dict(out)

    def clear(self):
        """Drop everything recorded; later calls are still recorded."""
        for st in self._states:
            st.agg.clear()
            st.kept.clear()
            st.spans.clear()
            st.counters.clear()

    def write(self, path, extra):
        """Write aggregates and kept spans as gzipped JSON."""
        names = sorted({name for st in self._states for name, _ in st.agg}
                       | {caller for st in self._states for _, caller in st.agg})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["names"] = names
        doc["aggregates"] = {
            "fields": ["thread", "name", "caller", "calls", "total_ns", "self_ns"],
            "rows": [[st.ident, index[n], index[c], *v]
                     for st in self._states for (n, c), v in st.agg.items()],
        }
        doc["spans"] = {
            "note": f"first {SPAN_CAP} spans of each name; the rest are in "
                    "aggregates only, so a parent id may be missing",
            "fields": ["thread", "id", "parent", "name", "start_ns", "end_ns"],
            "rows": [[st.ident, sid, pid, index[n], s, e]
                     for st in self._states for sid, pid, n, s, e in st.spans],
        }
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi)."""
    covered = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
