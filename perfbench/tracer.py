"""Spans and counters around calls into momentgate's public functions.

The wrappers live here, in the benchmark, and are patched onto the module
attributes that callers look up; ``src/`` is not changed.  Patching a module
attribute also catches calls made through that module's own globals (for
example ``estimators.qc_hat`` calling ``order_stats``).  Names that another
module bound with ``from ... import`` are patched again in that module.

Spans (id, name, start, end, parent id, thread id) are kept in memory and
written out when the run ends.  Timestamps come from ``time.perf_counter``,
which on Linux reads CLOCK_MONOTONIC, so spans recorded in a child process
line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "bench.op"

# (module, function) pairs recorded as spans.  A span name is
# "<module>.<function>"; calls, errors and (where an extractor is given) the
# number of values handled are counted as well.
SPANNED = (
    ("tail_models", "sample_iid"),
    ("tail_models", "read_sample"),
    ("theory", "y_dagger"),
    ("theory", "y_star"),
    ("theory", "critical_curve"),
    ("theory", "moment_quadrature"),
    ("theory", "predicted_lnS"),
    ("estimators", "qc_hat"),
    ("estimators", "order_stats"),
    ("estimators", "theta_hat"),
    ("estimators", "rho_hat"),
    ("dependence", "synth_series"),
    ("dependence", "sieve"),
    ("dependence", "qc_hat_corr"),
    ("montecarlo", "run_iid"),
    ("montecarlo", "run_corr"),
    ("montecarlo", "lnS_curve"),
    ("montecarlo", "rep_seed"),
    ("cli", "main"),
)

# Called thousands of times inside the solvers: counted, not timed, so that
# tracing does not swamp the time of their callers.
COUNTED = (
    ("tail_models", "h"),
    ("tail_models", "quantile"),
    ("tail_models", "h_prime"),
)

# Names bound under another module by ``from ... import``: (module, attribute)
# -> the span they belong to.
ALIASES = {
    ("dependence", "theta_hat"): "estimators.theta_hat",
    ("dependence", "rho_hat"): "estimators.rho_hat",
    ("dependence", "critical_curve"): "theory.critical_curve",
}

VALUES = {
    "tail_models.sample_iid": lambda args, kwargs, res: len(res.values),
    "estimators.order_stats": lambda args, kwargs, res: len(args[0].values),
    "dependence.synth_series": lambda args, kwargs, res: len(res.values),
}


def _module(short: str):
    return importlib.import_module(f"momentgate.{short}")


class Tracer:
    """Records spans and counts while ``enabled``; see ``install``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._counters_lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- per-thread state -------------------------------------------------
    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.counts = Counter()
            with self._counters_lock:
                self._counters.append(loc.counts)
        return loc

    def counts(self) -> Counter:
        total = Counter()
        with self._counters_lock:
            for c in self._counters:
                total.update(c)
        return total

    # -- recording --------------------------------------------------------
    def begin(self, name: str):
        st = self._state()
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(sid)
        return (sid, name, parent, perf_counter())

    def end(self, token, error: bool = False, values: int | None = None):
        t1 = perf_counter()
        sid, name, parent, t0 = token
        st = self._state()
        st.stack.pop()
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
        if error:
            st.counts[name + ".errors"] += 1
        if values is not None:
            st.counts[name + ".values"] += values

    def _span_wrapper(self, name: str, fn):
        extract = VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = self.begin(name)
            try:
                res = fn(*args, **kwargs)
            except Exception:
                self.end(token, error=True)
                raise
            self.end(token, values=extract(args, kwargs, res) if extract else None)
            return res

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self._state().counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Patch every traced name; ``uninstall`` puts the originals back."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        plan = [(m, f, f"{m}.{f}", self._span_wrapper) for m, f in SPANNED]
        plan += [(m, f, f"{m}.{f}", self._count_wrapper) for m, f in COUNTED]
        plan += [(m, f, name, self._span_wrapper) for (m, f), name in ALIASES.items()]
        for mod_name, attr, name, make in plan:
            mod = _module(mod_name)
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, make(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def merge_child(self, spans, counts, root_sid: int, thread: int) -> None:
        """Adopt spans recorded by a child process under the span ``root_sid``.

        The child's spans are renumbered; its main thread becomes ``thread``
        and its top-level spans become children of ``root_sid``.
        """
        remap = {}
        main_tid = spans[0][5] if spans else None
        for sid, *_ in spans:
            remap[sid] = next(self._ids)
        for sid, name, t0, t1, parent, tid in spans:
            new_parent = remap[parent] if parent is not None else root_sid
            new_tid = thread if tid == main_tid else tid
            self.spans.append((remap[sid], name, t0, t1, new_parent, new_tid))
        self._state().counts.update(counts)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def thread_self_intervals(spans):
    """Per span, the parts of its interval not covered by its children.

    Children are the spans whose parent is the span; a span's parent is
    always on its own thread, so this is "duration minus the part covered by
    child spans on the same thread".  Returns a list of
    (start, end, span id, name, thread id).
    """
    children = defaultdict(list)
    for sp in spans:
        if sp[4] is not None:
            children[sp[4]].append(sp)
    out = []
    for sid, name, t0, t1, _parent, tid in spans:
        cur = t0
        for _c, _n, c0, c1, _p, _t in sorted(children.get(sid, ()), key=lambda s: s[2]):
            if c0 > cur:
                out.append((cur, min(c0, t1), sid, name, tid))
            cur = max(cur, c1)
        if cur < t1:
            out.append((cur, t1, sid, name, tid))
    return out


def wall_self_times(spans, driving_thread: int) -> dict:
    """Self time per span name as a share of wall-clock time.

    Starts from the per-thread self intervals.  While spans on other threads
    (the Monte-Carlo thread pool) are running, the driving thread only waits
    for them, so its span is not charged; the remaining running spans share
    each instant equally.  With one thread at work this is the plain self
    time, and the shares over an operation add up to its root span's
    duration.
    """
    events = []
    for t0, t1, sid, name, tid in thread_self_intervals(spans):
        if t1 > t0:
            events.append((t0, 1, sid, name, tid))
            events.append((t1, -1, sid, name, tid))
    events.sort(key=lambda e: (e[0], e[1]))
    acc = defaultdict(float)
    active = {}
    prev = None
    for t, kind, sid, name, tid in events:
        if prev is not None and t > prev and active:
            share = list(active.values())
            if len(share) > 1:
                others = [s for s in share if s[1] != driving_thread]
                share = others or share
            dt = (t - prev) / len(share)
            for nm, _tid in share:
                acc[nm] += dt
        if kind > 0:
            active[sid] = (name, tid)
        else:
            active.pop(sid, None)
        prev = t
    return dict(acc)
