"""Layer probes: timing wrappers the benchmark installs around public calls.

The benchmark measures the program from outside.  In a traced run it
replaces public layer entry points (``featurize_records``,
``plan_fingerprint``, ``make_batch``, ``predict_runtimes``,
``execute_trace``, ...) with wrappers that record, per layer, the number of
calls, the work items they covered (plans, tables), the total time and the
*self* time: a call's duration minus the time of probed calls nested inside
it on the same thread.  Self times of nested layers therefore never count
twice, which is what lets the budget tables add up.

Wrappers inherited by forked fleet workers cannot write into this
process's memory, so there they fold their numbers into the program's
metrics registry (``repro.obs.metrics.REGISTRY``); the fleet ships worker
registry deltas back with every ``stats()`` answer, and
:meth:`LayerProbe.worker_totals` reads them out of the merged registry.

An untraced run installs no probe at all, except the sensitivity hook: a
fixed delay per plan added to the serving featurize call, used to prove
that the benchmark flags a slowdown of known size.
"""

from __future__ import annotations

import functools
import gc
import os
import threading
import time

__all__ = ["LayerProbe", "GcMonitor", "install_layer_probes"]

_WORKER_PREFIX = "perfbench."


class LayerProbe:
    """Per-layer call/items/total/self-time accounting for wrapped calls."""

    def __init__(self):
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self.keep_spans = False

    # -- installation ----------------------------------------------------
    def wrap(self, owner, attr, layer, items=None, delay_s=0.0):
        """Replace ``owner.attr`` by a probing wrapper (undone by restore).

        ``items(args, kwargs, result)`` counts the work items of one call
        (plans, tables, cache hits); ``delay_s`` sleeps that long per item
        inside the call, charged to the layer, for the sensitivity
        self-check.
        """
        original = getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != probe.pid:
                return probe._worker_call(original, layer, items, delay_s,
                                          args, kwargs)
            state = probe._state()
            stack = state["stack"]
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                if delay_s:
                    time.sleep(delay_s * items(args, kwargs, None))
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                n_items = (items(args, kwargs, result) if items is not None
                           else 1)
                nested = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                totals = state["totals"].get(layer)
                if totals is None:
                    totals = state["totals"][layer] = [0, 0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += n_items
                totals[2] += duration
                totals[3] += duration - nested
                if probe.keep_spans:
                    state["spans"].append((layer, start, end,
                                           duration - nested))

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return wrapper

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "totals": {}, "spans": [],
                     "thread": threading.current_thread().name}
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    @staticmethod
    def _worker_call(original, layer, items, delay_s, args, kwargs):
        from repro.obs.metrics import REGISTRY

        start = time.perf_counter()
        result = None
        try:
            if delay_s:
                time.sleep(delay_s * items(args, kwargs, None))
            result = original(*args, **kwargs)
            return result
        finally:
            duration_ms = (time.perf_counter() - start) * 1e3
            n_items = items(args, kwargs, result) if items is not None else 1
            REGISTRY.increment(f"{_WORKER_PREFIX}{layer}.calls")
            REGISTRY.increment(f"{_WORKER_PREFIX}{layer}.items", n_items)
            REGISTRY.observe(f"{_WORKER_PREFIX}{layer}.ms", duration_ms)

    # -- reading ---------------------------------------------------------
    def snapshot(self):
        """``{layer: [calls, items, total_s, self_s]}`` summed over threads
        of this process."""
        merged = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, n_items, total, self_s) in list(
                    state["totals"].items()):
                row = merged.setdefault(layer, [0, 0, 0.0, 0.0])
                row[0] += calls
                row[1] += n_items
                row[2] += total
                row[3] += self_s
        return merged

    def spans(self):
        """``[(layer, start, end, self_s, thread name)]`` of this process."""
        out = []
        with self._lock:
            states = list(self._states)
        for state in states:
            out.extend(span + (state["thread"],) for span in state["spans"])
        return out

    @staticmethod
    def worker_totals(snap):
        """``{layer: [calls, items, total_s]}`` shipped back by forked
        workers, from a snapshot of the registry the fleet merges into."""
        merged = {}
        for name, value in snap["counters"].items():
            if not name.startswith(_WORKER_PREFIX):
                continue
            layer, field = name[len(_WORKER_PREFIX):].rsplit(".", 1)
            row = merged.setdefault(layer, [0, 0, 0.0])
            row[0 if field == "calls" else 1] += value
        for name, payload in snap["histograms"].items():
            if name.startswith(_WORKER_PREFIX) and name.endswith(".ms"):
                layer = name[len(_WORKER_PREFIX):-3]
                merged.setdefault(layer, [0, 0, 0.0])[2] += (
                    payload["sum"] / 1e3)
        return merged


class GcMonitor:
    """Cyclic-GC pause durations of this process, via ``gc.callbacks``."""

    def __init__(self):
        self.pauses_ms = []
        self._start = None

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pauses_ms.append((time.perf_counter() - self._start) * 1e3)
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def _count(position, name):
    """Item counter: length of a positional-or-keyword list argument."""
    def items(args, kwargs, result):
        value = args[position] if len(args) > position else kwargs[name]
        return len(value)
    return items


def _hit(args, kwargs, result):
    return int(result is not None)


def install_layer_probes(probe, featurize_delay_s=0.0, traced=True):
    """Wrap every probed public layer entry point.

    ``traced=False`` installs at most the serving featurize wrapper that
    carries the sensitivity delay, so an untraced run stays unprobed.
    """
    import repro.cardest.datadriven as datadriven
    import repro.core.api as core_api
    import repro.core.training as training
    import repro.datagen.benchmark20 as benchmark20
    import repro.featurization.batching as batching
    import repro.serving.core as serving_core
    import repro.serving.fleet as serving_fleet
    import repro.workloads.trace as trace_mod
    from repro.featurization import FeaturizationCache
    from repro.nn import Adam
    from repro.serving import ModelRegistry

    records = _count(0, "records")
    if traced or featurize_delay_s:
        probe.wrap(serving_core, "featurize_records",
                   "featurization.featurize", items=records,
                   delay_s=featurize_delay_s)
    if not traced:
        return probe
    probe.wrap(core_api, "featurize_records", "featurization.featurize",
               items=records)
    probe.wrap(serving_core, "plan_fingerprint", "featurization.fingerprint")
    probe.wrap(serving_fleet, "plan_fingerprint", "featurization.fingerprint")
    probe.wrap(FeaturizationCache, "key", "featurization.cache_key")
    probe.wrap(FeaturizationCache, "get", "featurization.feat_cache",
               items=_hit)
    graphs = _count(0, "graphs")
    probe.wrap(training, "make_batch", "featurization.make_batch",
               items=graphs)
    probe.wrap(batching, "make_batch", "featurization.make_batch",
               items=graphs)
    infer_graphs = _count(1, "graphs")
    probe.wrap(serving_core, "predict_runtimes", "core.infer",
               items=infer_graphs)
    probe.wrap(training, "predict_runtimes", "core.infer",
               items=infer_graphs)
    probe.wrap(training, "train_model", "core.train")
    probe.wrap(Adam, "step", "nn.adam_step")
    probe.wrap(trace_mod, "plan_query", "optimizer.plan")
    probe.wrap(trace_mod, "execute_trace", "executor.execute",
               items=_count(1, "plans"))
    probe.wrap(trace_mod, "simulate_runtime_ms_batch", "executor.simulate",
               items=_count(1, "roots"))
    probe.wrap(datadriven, "learn_spn", "cardest.spn_learn")
    probe.wrap(core_api, "annotate_cardinalities", "cardest.annotate")
    probe.wrap(benchmark20, "generate_database", "datagen.generate")
    probe.wrap(ModelRegistry, "load", "registry.hydrate")
    probe.wrap(ModelRegistry, "load_mmap", "registry.hydrate")
    probe.keep_spans = True
    return probe
