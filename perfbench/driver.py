"""Open-loop load driver for the serving workloads.

Requests are due on a fixed schedule (request ``i`` at ``start + i / rate``)
whatever the server does, the way independent users send them.  At most
``nproc`` client threads share the schedule, request ``i`` going to thread
``i % n_threads``.  Each request is timed from when it was *due*, not from
when ``submit()`` was called, so a stall that delays later sends is charged
to them; how late the generator itself ran is reported separately.
Saturation phases offer the whole stream at once from the same threads.

The first ``warmup`` requests form a warm-up phase that is counted (sent,
succeeded, failed) but excluded from the latency figures.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Phase", "client_threads", "offer_at_rate", "offer_all",
           "percentile"]

_WAIT_S = 120.0


def client_threads():
    """Client thread count: never more than the CPUs of this machine."""
    return max(1, min(2, os.cpu_count() or 1))


def percentile(values, p):
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass
class Phase:
    """Outcome of one driven phase; the warm-up requests are counted on
    their own and excluded from the timing figures."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    wrong: int = 0
    warmup_sent: int = 0
    warmup_failed: int = 0
    latencies_ms: list = field(default_factory=list)
    lateness_ms: list = field(default_factory=list)
    submit_us: list = field(default_factory=list)
    wall_s: float = 0.0
    handles: list = field(default_factory=list)

    def summary(self):
        out = {"phase": self.name, "sent": self.sent,
               "succeeded": self.succeeded, "failed": self.failed,
               "wrong_values": self.wrong,
               "warmup": {"sent": self.warmup_sent,
                          "failed": self.warmup_failed},
               "wall_s": round(self.wall_s, 4)}
        if self.latencies_ms:
            out["latency_ms"] = {
                "n": len(self.latencies_ms),
                "p50": round(percentile(self.latencies_ms, 50), 3),
                "p99": round(percentile(self.latencies_ms, 99), 3)}
        if self.lateness_ms:
            out["generator_late_ms"] = {
                "p50": round(percentile(self.lateness_ms, 50), 3),
                "p99": round(percentile(self.lateness_ms, 99), 3),
                "max": round(max(self.lateness_ms), 3)}
        return out


def _audit(phase, stream, slots, valid, succeeded_statuses, warmup):
    """Fold completed handles into ``phase``.  A delivered value that
    ``valid(key, value)`` rejects is wrong and counts as a failure, as
    does a shed or failed request."""
    for index, (scheduled, sent_at, submit_s, handle) in enumerate(slots):
        delivered = handle.status in succeeded_statuses
        ok = delivered and valid(stream[index][2], handle.value)
        phase.wrong += delivered and not ok
        if index < warmup:
            phase.warmup_sent += 1
            phase.warmup_failed += not ok
            continue
        phase.sent += 1
        if ok:
            phase.succeeded += 1
            phase.latencies_ms.append((handle.completed_at - scheduled) * 1e3)
        else:
            phase.failed += 1
        phase.lateness_ms.append((sent_at - scheduled) * 1e3)
        phase.submit_us.append(submit_s * 1e6)
        phase.handles.append(handle)


def _drive(target, stream, due, n_threads):
    """Send ``stream[i]`` at ``due[i]`` (None: as soon as possible)."""
    slots = [None] * len(stream)
    errors = []

    def client(offset):
        try:
            for index in range(offset, len(stream), n_threads):
                when = due[index]
                if when is not None:
                    delay = when - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                db_name, plan, _ = stream[index]
                sent_at = time.perf_counter()
                handle = target.submit(plan, db_name, block=when is None)
                slots[index] = (when if when is not None else sent_at,
                                sent_at, time.perf_counter() - sent_at,
                                handle)
        except Exception as exc:  # noqa: BLE001 — reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(offset,),
                                name=f"perfbench-client-{offset}")
               for offset in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for slot in slots:
        if not slot[3].wait(_WAIT_S):
            raise TimeoutError("a request did not complete within "
                               f"{_WAIT_S:.0f} s")
    return slots


def offer_at_rate(target, stream, rate_per_s, warmup, valid,
                  succeeded_statuses, name="fixed_rate"):
    """Open loop: ``stream[i]`` is due at ``start + i / rate_per_s``."""
    start = time.perf_counter() + 0.05
    due = [start + index / rate_per_s for index in range(len(stream))]
    slots = _drive(target, stream, due, client_threads())
    phase = Phase(name)
    phase.wall_s = max(s[3].completed_at for s in slots) - due[warmup]
    _audit(phase, stream, slots, valid, succeeded_statuses, warmup)
    return phase


def offer_all(target, stream, valid, succeeded_statuses, n_threads=None,
              name="saturation"):
    """The whole stream offered at once (blocking submits, no shedding);
    wall time runs from the first send to the last completion."""
    slots = _drive(target, stream, [None] * len(stream),
                   n_threads or client_threads())
    phase = Phase(name)
    phase.wall_s = (max(s[3].completed_at for s in slots)
                    - min(s[1] for s in slots))
    _audit(phase, stream, slots, valid, succeeded_statuses, 0)
    return phase
