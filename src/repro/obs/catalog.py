"""Canonical catalog of serving-plane counters and metrics.

One source of truth for every ``serve.* / fleet.* / controller.* /
fault.* / store.*`` counter the serving stack fires.  The README's
counter table is generated from this module (``python -m
repro.obs.catalog --markdown``) and a tier-1 test cross-checks the
catalog against the names *actually fired* in the source tree — so docs,
catalog and code cannot drift apart silently.

Patterns use ``<placeholder>`` for a dynamic final segment
(``fault.injected.<point>``); documentation may also use brace
alternation (``fleet.worker.{spawn,restart}``), which
:func:`expand_braces` normalises before matching.
"""

from __future__ import annotations

import re

__all__ = ["COUNTERS", "HISTOGRAMS", "GAUGES", "counter_patterns",
           "expand_braces", "pattern_matches", "markdown_table"]

#: (pattern, description) for every serving-plane counter.
COUNTERS = [
    # -- single-process serving core / server ---------------------------
    ("serve.batch.count", "batches the serving core processed"),
    ("serve.batch.requests", "requests across all processed batches"),
    ("serve.cache.hit", "result-cache hits (submit-time or late probe)"),
    ("serve.cache.miss", "requests that missed the result cache"),
    ("serve.shed.count", "requests shed by admission control"),
    ("serve.shed.priority.<priority>",
     "sheds by priority class (high/normal/low)"),
    ("serve.swap.count", "model hot-swaps picked up by the core"),
    ("serve.retry.count", "per-request inference retries after faults"),
    ("serve.registry.publish", "checkpoints published to the registry"),
    ("serve.registry.promote", "registry promotions to serving"),
    ("serve.registry.rollback", "registry rollbacks to the prior version"),
    ("serve.registry.verify", "checkpoint digest verifications"),
    ("serve.registry.quarantine", "corrupt checkpoints quarantined"),
    ("serve.fault.model_path", "model-path faults absorbed by retries"),
    ("serve.fault.bisect", "batch bisections isolating a poisoned plan"),
    ("serve.fault.batcher_crash", "batcher thread crashes (supervised)"),
    ("serve.fault.requeued", "in-flight requests re-enqueued after a crash"),
    ("serve.fault.deadline", "requests expired at their deadline"),
    ("serve.fault.hydrate", "checkpoint hydration failures"),
    ("serve.degraded.count", "requests answered by the degraded fallback"),
    ("serve.degraded.open", "circuit breakers opened"),
    ("serve.degraded.half_open", "breaker half-open probe attempts"),
    ("serve.degraded.close", "breakers closed after a successful probe"),
    # -- fleet router / workers -----------------------------------------
    ("fleet.worker.spawn", "worker processes spawned"),
    ("fleet.worker.restart", "worker processes restarted after exit/kill"),
    ("fleet.route.hit", "requests routed to their sticky shard"),
    ("fleet.route.rebalance", "routing decisions that moved a shard"),
    ("fleet.swap.broadcast", "registry swaps broadcast to every worker"),
    ("fleet.hang.detected", "workers declared hung by missed heartbeats"),
    ("fleet.hang.killed", "hung workers killed for restart"),
    ("fleet.hedge.sent", "hedged duplicate requests sent"),
    ("fleet.hedge.won", "hedges that beat the primary"),
    ("fleet.hedge.wasted", "hedges that lost the race"),
    ("fleet.brownout.count", "LOW-priority brownout fallbacks under overload"),
    ("fleet.stats.unresponsive", "stats polls a worker failed to answer"),
    # -- continuous-learning controller ---------------------------------
    ("controller.tick.count", "controller ticks executed"),
    ("controller.observe.count", "observations ingested from the tap"),
    ("controller.observe.executed", "observations joined with executed runtimes"),
    ("controller.observe.dropped", "observations dropped by the bounded tap"),
    ("controller.drift.detected", "drift triggers tripped"),
    ("controller.retrain.count", "retrain jobs launched"),
    ("controller.candidate.published", "candidate versions published"),
    ("controller.candidate.rejected", "candidates rejected by shadow eval"),
    ("controller.shadow.samples", "shadow-evaluated samples"),
    ("controller.promote.count", "guarded promotions"),
    ("controller.rollback.count", "probation auto-rollbacks"),
    ("controller.probation.passed", "probation windows passed"),
    ("controller.crash.count", "controller ticks that crashed (contained)"),
    # -- fault injection / checkpoint store -----------------------------
    ("fault.injected.<point>", "faults fired at an injection point"),
    ("store.hit.<kind>", "bench-store cache hits by artifact kind"),
    ("store.miss.<kind>", "bench-store cache misses by artifact kind"),
    ("store.corrupt.<kind>", "store artifacts failing digest verification"),
    ("store.quarantine.<kind>", "corrupt store artifacts quarantined"),
]

#: (name, description) for log-bucket latency histograms (fixed power-of-2
#: boundaries, exactly mergeable across workers at the router).
HISTOGRAMS = [
    ("serve.latency_ms", "end-to-end latency of delivered requests"),
    ("serve.batch_ms", "serving-core batch processing time"),
    ("parallel.map_ms", "parallel_map fan-out wall time"),
]

#: (name, description) for gauges (last-write-wins).
GAUGES = [
    ("fleet.queue.depth", "fleet-wide outstanding-request high-water mark"),
]

_PLACEHOLDER = re.compile(r"<[a-z_]+>")


def counter_patterns():
    return [pattern for pattern, _ in COUNTERS]


def expand_braces(name):
    """Expand one level of ``{a,b}`` alternation into concrete names."""
    m = re.search(r"\{([^{}]+)\}", name)
    if not m:
        return [name]
    head, tail = name[:m.start()], name[m.end():]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(head + alt.strip() + tail))
    return out


def pattern_matches(pattern, name):
    """True if ``name`` matches ``pattern`` (``<x>`` = one dynamic tail)."""
    if "<" not in pattern:
        return pattern == name
    # re.escape leaves "<"/">" alone, so placeholders survive escaping.
    regex = _PLACEHOLDER.sub(r"[A-Za-z0-9_.\-]+", re.escape(pattern))
    return re.fullmatch(regex, name) is not None


def find_pattern(name):
    """The catalog pattern covering counter ``name``, or None."""
    for pattern, _ in COUNTERS:
        if pattern_matches(pattern, name):
            return pattern
    return None


def markdown_table():
    """The generated counter/metric catalog section for the README."""
    lines = ["| counter | meaning |", "| --- | --- |"]
    for pattern, desc in COUNTERS:
        lines.append(f"| `{pattern}` | {desc} |")
    lines.append("")
    lines.append("| histogram (log-bucket, exactly mergeable) | meaning |")
    lines.append("| --- | --- |")
    for name, desc in HISTOGRAMS:
        lines.append(f"| `{name}` | {desc} |")
    lines.append("")
    lines.append("| gauge (last write wins) | meaning |")
    lines.append("| --- | --- |")
    for name, desc in GAUGES:
        lines.append(f"| `{name}` | {desc} |")
    return "\n".join(lines)


if __name__ == "__main__":
    import sys
    if "--markdown" in sys.argv:
        print(markdown_table())
    else:
        for pattern, desc in COUNTERS:
            print(f"{pattern:40s} {desc}")
        for name, desc in HISTOGRAMS:
            print(f"{name:40s} [histogram] {desc}")
