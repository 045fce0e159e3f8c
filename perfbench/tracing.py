"""Counters and spans recorded from outside the package.

Each traced function is wrapped by rebinding the name its caller looked
up, for example ``dpgibbs.gibbs.sample_tgm``, so nothing under ``src/``
changes.  Functions that run once per command, chain or replication get
one span each, with the id of the span that was open when they started.
Per-draw kernels, which run 10^5 to 10^6 times a run, get counters
instead: calls, inclusive seconds and self seconds (inclusive minus the
inclusive time of wrapped callees).  Times are wall time from
perf_counter, the cheapest clock to read twice per kernel call.
Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import types
from time import perf_counter

_PROBE_CALLS = 20_000


class Counter:
    __slots__ = ("calls", "total", "self_s", "nested_calls", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.nested_calls = 0  # wrapped calls made while this one was open
        self.errors = 0
        self.extra = 0.0  # free accumulator for on_exit hooks


class Patches:
    """Rebinds package names and puts the originals back."""

    def __init__(self):
        self._patches: list[tuple] = []

    def replace(self, module, attr: str, new):
        """Rebind module.attr until uninstall() puts the original back."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


class Tracer(Patches):
    """Installs wrappers, records counters and spans, and removes them."""

    def __init__(self):
        super().__init__()
        self.counters: dict[str, Counter] = {}
        self.spans: list[tuple] = []  # (id, parent, name, start, end, error, attrs)
        self._frames: list[list] = []  # [child seconds, nested calls, span id]
        self._next_id = 0
        self.wrapper_cost = 0.0

    # -- installation ------------------------------------------------------

    def wrap(self, module, attr: str, key, *, span: bool = False, attrs=None,
             on_exit=None, count_errors=None):
        """Replace ``module.attr`` by a recording wrapper.

        key: counter name, or a callable of the call's positional args.
        span: also record one span per call.
        attrs: callable(args) giving span attributes.
        on_exit: callable(counter, args, result) run after a normal return.
        count_errors: exception class counted once, by the innermost
            wrapped function it leaves.
        """
        fn = getattr(module, attr)
        frames = self._frames
        counters = self.counters
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            sid = -1
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, 0, sid]
            frames.append(frame)
            t0 = perf_counter()
            result = None
            error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                frames.pop()
                if frames:
                    parent = frames[-1]
                    parent[0] += dt
                    parent[1] += 1 + frame[1]
                name = key if isinstance(key, str) else key(args)
                c = counters.get(name)
                if c is None:
                    c = counters[name] = Counter()
                c.calls += 1
                c.total += dt
                c.self_s += dt - frame[0]
                c.nested_calls += frame[1]
                if error is None:
                    if on_exit is not None:
                        on_exit(c, args, result)
                elif count_errors is not None and isinstance(error, count_errors) \
                        and not getattr(error, "_perfbench_counted", False):
                    c.errors += 1
                    error._perfbench_counted = True
                if span:
                    parent_id = next((f[2] for f in reversed(frames) if f[2] >= 0), None)
                    spans.append((sid, parent_id, name, t0, t1,
                                  None if error is None else type(error).__name__,
                                  attrs(args) if attrs is not None else None))

        self.replace(module, attr, wrapper)

    def calibrate(self):
        """Seconds a wrapped callee adds to its caller's inclusive time.

        Used to correct inclusive times of functions whose callees are
        wrapped; self times need no correction beyond this.
        """

        probe = types.SimpleNamespace(noop=lambda: None)
        t0 = perf_counter()
        for _ in range(_PROBE_CALLS):
            probe.noop()
        bare = perf_counter() - t0
        self.wrap(probe, "noop", "_probe")
        t0 = perf_counter()
        for _ in range(_PROBE_CALLS):
            probe.noop()
        wrapped = perf_counter() - t0
        self.uninstall()
        del self.counters["_probe"]
        self.wrapper_cost = max(wrapped - bare, 0.0) / _PROBE_CALLS

    # -- reading -----------------------------------------------------------

    def get(self, name: str) -> Counter:
        return self.counters.get(name) or Counter()

    def corrected_total(self, name: str) -> float:
        """Inclusive seconds minus the wrapper cost of the wrapped callees."""
        c = self.get(name)
        return max(c.total - self.wrapper_cost * c.nested_calls, 0.0)

    def spans_json(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": name, "start": start,
             "end": end, "error": error, "attrs": attrs}
            for sid, parent, name, start, end, error, attrs in self.spans
        ]
