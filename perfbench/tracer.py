"""Span tracing from outside the program, for the traced benchmark run.

:meth:`Tracer.install` wraps, at class level and before anything is
built, ``Kernel.on`` and ``EventBus.subscribe`` / ``subscribe_all`` so
every EventKind handler and bus subscriber registered afterwards runs
inside a span labelled with the layer (module) that owns it, and it
wraps the public calls each layer exposes (``PUBLIC_CALLS``).
:meth:`Tracer.instrument` wraps an engine's pop and settle observers.

A span is (name, start, end, parent); spans stay in memory, in compact
arrays, until the run ends.  A layer's self time is its span time minus
the time its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

#: (module, attribute path, layer) of the public calls timed as spans.
PUBLIC_CALLS = (
    ("repro.sim.frontier", "SyntheticSource.next_job", "trace"),
    ("repro.trace.workload", "build_workload", "trace"),
    ("repro.core.scheduler", "DSPScheduler.schedule", "core.scheduler"),
    ("repro.core.preemption", "DSPPreemption.select_preemptions_from_core",
     "core.preemption"),
    ("repro.sim.dispatch", "DispatchSubsystem.start_task", "sim.dispatch"),
    ("repro.sim.arraycore", "ArrayCore.dispatch_candidates", "sim.arraycore"),
    ("repro.sim.arraycore", "ArrayCore.scan_signals", "sim.arraycore"),
    ("repro.sim.arraycore", "ArrayCore.view_signals", "sim.arraycore"),
    ("repro.sim.arraycore", "ArrayCore.stats", "sim.arraycore"),
    ("repro.sim.views", "ViewCache.build", "sim.views"),
    ("repro.sim.journal", "JournalRecorder.flush", "sim.journal"),
    ("repro.sim.frontier", "StreamingFrontier.run", "sim.frontier"),
    ("repro.sim.frontier", "StreamingFrontier.admit", "sim.frontier"),
    ("repro.sim.frontier", "RetirementManager.sweep", "sim.frontier"),
    ("repro.sim.engine", "SimEngine.run", "sim.kernel"),
    ("repro.sim.engine", "SimEngine.pump", "sim.kernel"),
    ("repro.service.core", "ServiceCore.run_cycle", "service.core"),
    ("repro.service.core", "ServiceCore.submit", "service.core"),
    ("repro.service.core", "ServiceCore.status", "service.core"),
    ("repro.service.admission", "AdmissionController.offer", "service.admission"),
    ("repro.service.admission", "AdmissionController.drain", "service.admission"),
    ("repro.service.protocol", "decode_job_spec", "service.protocol"),
)

#: Calls too small and frequent to time: only counted.
COUNTED_CALLS = (("repro.sim.executor", "NodeRuntime.fits"),)

#: The dag layer: every public function of ``repro.dag.graph``.
DAG_MODULE = "repro.dag.graph"

#: Marks a patched attribute that the class only inherited.
_INHERITED = object()


def layer_of_module(module: str) -> str:
    """``repro.sim.dispatch`` -> ``sim.dispatch``."""
    return module[len("repro."):] if module.startswith("repro.") else module


def _owner_module(fn) -> str:
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    return getattr(fn, "__module__", "") or ""


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are listed in start order, so the children of one parent come
    in start order too; the running ``last`` end merges overlapping
    children into their union.
    """
    n = len(starts)
    cover = [0.0] * n
    last = [float("-inf")] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = starts[i] if starts[i] > last[p] else last[p]
        if ends[i] > lo:
            cover[p] += ends[i] - lo
        if ends[i] > last[p]:
            last[p] = ends[i]
    return [ends[i] - starts[i] - cover[i] for i in range(n)]


class Tracer:
    """Records spans and counts; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.request_ids: dict[int, object] = {}
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, request_id=None):
        """``fn`` run inside a span called *name*.  ``after(args, result)``
        runs inside the span on return; ``request_id(args)`` tags it."""
        nid = self._name_id(name)
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            if request_id is not None:
                self.request_ids[i] = request_id(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # ---------------------------------------------------------- install
    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _patch_function(self, module, name: str, value) -> None:
        """Rebind a module function everywhere the package imported it."""
        original = getattr(module, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, name, None) is original
            ):
                self._patch(mod, name, value)

    def _resolve(self, module_name: str, path: str):
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]

    def install(self) -> None:
        """Wrap registration points and public calls at class level."""
        from repro.sim.kernel import EventBus, Kernel

        def registration(register, label):
            """*register* with its handler (the last argument) wrapped in
            a span named after the handler's layer and ``label``."""

            def wrapped(owner, *args):
                *keys, handler = args
                layer = layer_of_module(_owner_module(handler))
                name = f"{layer}:{label(keys, handler)}"
                return register(owner, *keys, self.wrap(name, handler))

            return wrapped

        def by_handler(keys, handler):
            return f"bus.{handler.__name__}"

        self._patch(Kernel, "on", registration(Kernel.on, lambda keys, h: keys[0].name))
        self._patch(EventBus, "subscribe", registration(EventBus.subscribe, by_handler))
        self._patch(
            EventBus, "subscribe_all", registration(EventBus.subscribe_all, by_handler)
        )

        extras = {
            "SyntheticSource.next_job": dict(
                after=lambda a, r: self.count("trace.jobs", r is not None)
            ),
            "build_workload": dict(
                after=lambda a, r: self.count("trace.jobs", len(r.jobs))
            ),
            "DSPScheduler.schedule": dict(
                after=lambda a, r: self.count(
                    "scheduler.tasks", sum(len(j.tasks) for j in a[1])
                )
            ),
            "DSPPreemption.select_preemptions_from_core": dict(
                after=lambda a, r: self.count("preemption.decisions", len(r or ()))
            ),
            "StreamingFrontier.admit": dict(
                after=lambda a, r: self.count("frontier.admitted_jobs", r)
            ),
            "RetirementManager.sweep": dict(
                after=lambda a, r: self.count("frontier.retired_jobs", r)
            ),
            "ServiceCore.submit": dict(
                after=self._parked, request_id=lambda a: a[1].get("req")
            ),
            "ServiceCore.status": dict(request_id=lambda a: a[1].get("req")),
            "ServiceCore.run_cycle": dict(after=self._resolved),
            "AdmissionController.offer": dict(
                after=lambda a, r: self.count(f"admission.{r[0]}")
            ),
        }
        self._parked_at: dict[int, float] = {}
        for module_name, path, layer in PUBLIC_CALLS:
            owner, attr = self._resolve(module_name, path)
            fn = getattr(owner, attr)
            traced = self.wrap(f"{layer}:{path}", fn, **extras.get(path, {}))
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
            else:
                self._patch_function(owner, attr, traced)
        for module_name, path in COUNTED_CALLS:
            owner, attr = self._resolve(module_name, path)
            self._patch(owner, attr, self._counted(path, getattr(owner, attr)))
        graph = importlib.import_module(DAG_MODULE)
        for name in graph.__all__:
            fn = getattr(graph, name)
            if callable(fn) and not isinstance(fn, type):
                self._patch_function(graph, name, self.wrap(f"dag:{name}", fn))

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _parked(self, args, result) -> None:
        if not isinstance(result, dict):  # a Ticket parked for its cycle
            self._parked_at[id(result)] = time.perf_counter()

    def _resolved(self, args, resolved) -> None:
        now = time.perf_counter()
        waits = self.samples.setdefault("park_s", [])
        for ticket in resolved:
            t = self._parked_at.pop(id(ticket), None)
            if t is not None:
                waits.append(now - t)
        self.samples.setdefault("admitted_per_cycle", []).append(
            sum(1 for t in resolved if t.reply and t.reply.get("status") == "ok")
        )

    def instrument(self, engine) -> None:
        """Wrap an engine's pop and settle observers (already registered
        at construction) as spans of their owning layers."""
        kernel = engine.runtime.kernel
        for observers, kind in (
            (kernel.pop_observers, "pop"), (kernel.settle_observers, "settle")
        ):
            observers[:] = [
                self.wrap(
                    f"{layer_of_module(_owner_module(fn))}:{kind}.{fn.__name__}",
                    fn,
                )
                for fn in observers
            ]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # ---------------------------------------------------------- summary
    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, durations."""
        own = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_ids):
            row = out.setdefault(
                self.names[nid],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []},
            )
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += own[i]
            row["durations"].append(self.ends[i] - self.starts[i])
        return out

    def root_seconds(self) -> float:
        """Time covered by top-level spans."""
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.parents)) if self.parents[i] < 0
        )

    def layer_table(self) -> list[list]:
        """Per layer, largest self time first: [layer, spans, self ms,
        self share, inclusive ms, inclusive share].  Shares are of the
        top-level span time; inclusive time sums the layer's outermost
        spans (those with no ancestor in the same layer)."""
        own = self_times(self.starts, self.ends, self.parents)
        layers = sorted({n.split(":")[0] for n in self.names})
        bit = {layer: 1 << k for k, layer in enumerate(layers)}
        name_bit = [bit[n.split(":")[0]] for n in self.names]
        above = [0] * len(own)  # layers of each span's ancestors, as bits
        rows = {layer: [layer, 0, 0.0, 0.0, 0.0, 0.0] for layer in layers}
        for i, nid in enumerate(self.name_ids):
            p = self.parents[i]
            if p >= 0:
                above[i] = above[p] | name_bit[self.name_ids[p]]
            row = rows[self.names[nid].split(":")[0]]
            row[1] += 1
            row[2] += own[i]
            if not above[i] & name_bit[nid]:  # outermost span of its layer
                row[4] += self.ends[i] - self.starts[i]
        total = self.root_seconds() or 1.0
        for row in rows.values():
            row[3], row[5] = row[2] / total, row[4] / total
            row[2], row[4] = row[2] * 1e3, row[4] * 1e3
        return sorted((r for r in rows.values() if r[1]), key=lambda r: -r[2])

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i, nid in enumerate(self.name_ids):
                fh.write(
                    f"{self.names[nid]}\t{self.starts[i]:.9f}\t"
                    f"{self.ends[i]:.9f}\t{self.parents[i]}\t"
                    f"{self.request_ids.get(i, '')}\n"
                )
