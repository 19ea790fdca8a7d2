#!/usr/bin/env python3
"""Multi-hop flooding over a chain of robots: inject one message at the end
of a line and watch it hop outward round by round until the ttl runs dry.

Usage::

    python demos/02_flooding.py
"""

from hexswarm import (
    HexCoord,
    TrackerLog,
    connectivity_components,
    flood_until_quiet,
    neighbor_masks,
)
from hexswarm.comms import ids_of


def main():
    positions = {rid: HexCoord(rid, 0) for rid in range(8)}
    masks = neighbor_masks(positions, 1)  # bit i of a mask stands for robot i
    print("8 robots in a line at unit spacing, comm range 1")
    print("neighbor masks:", {rid: f"{mask:08b}" for rid, mask in masks.items()})
    print("components:", connectivity_components(masks))

    for ttl in (3, 7):
        outbox = {0: [0]}  # robot 0 sends its message seq 0
        reach = {}
        flood_until_quiet(masks, outbox, ttl, reach)  # what the run itself uses
        tracker = TrackerLog()
        tracker.flood(masks, outbox, ttl, 0)  # the same flood's deliveries, round by round
        entries = tracker.entries
        print(f"\nmessage from robot 0 with ttl {ttl}:")
        for rnd in range(1, max(e.hops for e in entries) + 1):
            reached = sorted(e.relay for e in entries if e.hops <= rnd)
            print(f"  after round {rnd}: reached {reached}")
        print(f"  tracker recorded {len(tracker)} deliveries:")
        for entry in entries:
            print(f"    robot {entry.relay} got ({entry.origin},{entry.seq}) at hop {entry.hops}")
        print(f"  robot 0 reaches {ids_of(reach[0])}")  # reach[0] is a mask


if __name__ == "__main__":
    main()
