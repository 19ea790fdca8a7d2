"""Per-layer spans for the traced benchmark run, recorded from outside the
package.

Each traced function is replaced in the namespace its caller looks it up in,
so ``hexswarm`` itself is unchanged. A span's self time is its duration
minus the time of the spans it encloses. Spans are aggregated per name
(self time and call count) rather than kept one by one: a dense run makes
hundreds of thousands of traced calls.

``hexworld`` gets no span: ``hex_distance`` and ``World.accessible`` run
millions of times per dense run, and wrapping them would distort the very
times being measured. Their cost shows in their callers' self times.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Optional

# (owner, attribute, span name), the owner a module or "module:Class". Each
# entry is patched in the namespace its callers look it up in: comm_neighbors
# twice, because the engine builds adjacency with it and
# connectivity_components calls it inside comms.
SPANS = (
    ("hexswarm.engine", "spawn_step", "engine.spawn"),
    ("hexswarm.engine", "_emit_reports", "engine.emit"),
    ("hexswarm.engine", "_assemble_observations", "engine.observe"),
    ("hexswarm.engine", "resolve_conflicts", "engine.conflict"),
    ("hexswarm.engine", "derive_rng", "engine.rng"),
    ("hexswarm.engine", "flood_until_quiet", "comms.flood_until_quiet"),
    ("hexswarm.engine", "new_mailboxes", "comms.new_mailboxes"),
    ("hexswarm.engine", "send", "comms.send"),
    ("hexswarm.engine", "connectivity_components", "comms.components"),
    ("hexswarm.engine", "comm_neighbors", "comms.neighbors"),
    ("hexswarm.comms", "comm_neighbors", "comms.neighbors"),
    ("hexswarm.comms", "flood_round", "comms.flood_round"),
    ("hexswarm.engine", "elect_leader", "bco.elect"),
    ("hexswarm.engine", "decide_move_ga", "ga.decide"),
    ("hexswarm.engine", "decide_move_aco", "aco.decide"),
    ("hexswarm.engine", "decide_move_bco", "bco.decide"),
    ("hexswarm.aco:PheromoneField", "deposit", "aco.deposit"),
    ("hexswarm.aco:PheromoneField", "evaporate", "aco.evaporate"),
    ("hexswarm.engine", "tick", "engine.tick"),
    ("hexswarm.cli", "parse_config", "config.parse"),
    ("hexswarm.cli", "config_overrides", "config.overrides"),
    ("hexswarm.cli", "trace_csv", "cli.trace_csv"),
    ("hexswarm.cli", "tracker_csv", "cli.tracker_csv"),
    ("hexswarm.cli", "field_csv", "cli.field_csv"),
    ("hexswarm.cli", "write_atomic", "cli.write"),
)

# Layer time metric: the spans whose self times it sums.
LAYER_TIMES = {
    "comms.flood_s": ("comms.flood_until_quiet", "comms.flood_round"),
    "comms.neighbors_s": ("comms.neighbors",),
    "comms.components_s": ("comms.components",),
    "comms.mailbox_s": ("comms.new_mailboxes", "comms.send"),
    "ga.decide_s": ("ga.decide",),
    "aco.decide_s": ("aco.decide",),
    "aco.deposit_s": ("aco.deposit",),
    "aco.evaporate_s": ("aco.evaporate",),
    "bco.decide_s": ("bco.decide",),
    "bco.elect_s": ("bco.elect",),
    "engine.spawn_s": ("engine.spawn",),
    "engine.emit_s": ("engine.emit",),
    "engine.observe_s": ("engine.observe",),
    "engine.conflict_s": ("engine.conflict",),
    "engine.rng_s": ("engine.rng",),
    "engine.tick_self_s": ("engine.tick",),
    "config.parse_s": ("config.parse", "config.overrides"),
    "cli.trace_csv_s": ("cli.trace_csv",),
    "cli.tracker_csv_s": ("cli.tracker_csv",),
    "cli.field_csv_s": ("cli.field_csv",),
    "cli.write_s": ("cli.write",),
}

# Layer count metric: the span whose calls it counts.
LAYER_CALLS = {
    "comms.flood_rounds": "comms.flood_round",
    "comms.neighbors_calls": "comms.neighbors",
    "ga.decide_calls": "ga.decide",
    "engine.rng_calls": "engine.rng",
}


# Counters kept by the span hooks.
COUNTERS = (
    "comms.deliveries",
    "comms.neighbors_found",
    "comms.neighbors_scanned",
    "bco.leader_changes",
    "cli.bytes_written",
)

# Every reported per-layer metric with its unit. Times are medians over the
# traced rounds; everything else must repeat exactly. The yield is neighbours
# found / pairs scanned, the useful share of the all-pairs scan.
LAYER_METRICS = {
    **{metric: "s" for metric in LAYER_TIMES},
    **{metric: "count" for metric in LAYER_CALLS},
    "comms.deliveries": "count",
    "bco.leader_changes": "count",
    "cli.bytes_written": "bytes",
    "comms.neighbors_yield": "ratio",
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.invariant_s = 0.0
        self.invariant_checks = 0
        self._stack = [0.0]  # time covered by child spans, one slot per open span

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
                return result
            finally:
                duration = time.perf_counter() - t0
                self_s[name] += duration - stack.pop()
                stack[-1] += duration
                calls[name] += 1

        return span

    def _count_neighbors(self, args, found) -> None:
        self.counts["comms.neighbors_scanned"] += len(args[0]) - 1
        self.counts["comms.neighbors_found"] += len(found)

    def _count_deliveries(self, args, delivered) -> None:
        self.counts["comms.deliveries"] += delivered

    def _count_leader_change(self, args, board) -> None:
        previous = args[3]
        if previous is None or previous.leader != board.leader:
            self.counts["bco.leader_changes"] += 1

    def _count_bytes(self, args, _) -> None:
        self.counts["cli.bytes_written"] += len(args[1].encode("utf-8"))

    def install(self) -> None:
        """Patch every traced name; the process is expected to exit after."""
        counters = {
            "comms.neighbors": self._count_neighbors,
            "comms.flood_until_quiet": self._count_deliveries,
            "bco.elect": self._count_leader_change,
            "cli.write": self._count_bytes,
        }
        for spec, attr, name in SPANS:
            owner = _owner(spec)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), counters.get(name)))

        engine = _owner("hexswarm.engine")
        traced_tick = engine.tick
        check_invariants = engine.check_invariants

        def tick_and_check(state):
            traced_tick(state)
            t0 = time.perf_counter()
            check_invariants(state)
            self.invariant_s += time.perf_counter() - t0
            self.invariant_checks += 1

        engine.tick = tick_and_check

    def layer_metrics(self) -> dict[str, float]:
        """Every additive figure: self times, call counts and the counters,
        with neighbours found and scanned kept apart for the yield."""
        metrics = {
            metric: sum(self.self_s[name] for name in names)
            for metric, names in LAYER_TIMES.items()
        }
        metrics.update({metric: self.calls[name] for metric, name in LAYER_CALLS.items()})
        metrics.update(self.counts)
        return metrics
