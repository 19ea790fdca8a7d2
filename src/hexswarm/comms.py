"""Range-limited ad hoc communication: neighbor discovery, synchronous
TTL-bounded flooding with duplicate suppression, and a tracker that records
every multi-hop delivery.

Flooding runs in synchronous rounds. A robot that received a message at hop
count h relays it to all comm neighbors, who receive it at hop count h + 1,
while h < the message's ttl. Duplicates are dropped on (origin, seq), so a
robot at hop distance h from the origin receives the message exactly once,
at hop count h, iff h <= the ttl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from .hexworld import Direction, HexCoord, hex_distance

POSITION_REPORT = "position"
TARGET_REPORT = "target"
DANCE_ADVERT = "dance"


@dataclass(frozen=True)
class PositionReport:
    cell: HexCoord
    heading: Direction
    speed: int


@dataclass(frozen=True)
class TargetReport:
    distance: int
    sensed_tick: int


@dataclass(frozen=True)
class DanceAdvert:
    leader: int
    direction: Direction
    strength: float

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"dance strength must be in [0,1], got {self.strength}")


class Message(NamedTuple):
    origin: int
    seq: int
    kind: str
    payload: Any
    ttl: int

    @property
    def msg_id(self) -> tuple[int, int]:
        return (self.origin, self.seq)


class TrackEntry(NamedTuple):
    tick: int
    origin: int
    seq: int
    relay: int  # robot the copy reached (and may relay onward)
    hops: int


TRACKER_CSV_HEADER = ("tick", "msg_origin", "msg_seq", "relay", "hops")


@dataclass
class TrackerLog:
    """Observation record of every delivery across the ad hoc network."""

    entries: list[TrackEntry] = field(default_factory=list)

    def record(self, tick: int, msg: Message, relay: int, hops: int) -> None:
        self.entries.append(TrackEntry(tick, msg.origin, msg.seq, relay, hops))

    def __len__(self) -> int:
        return len(self.entries)


class Delivery(NamedTuple):
    message: Message  # as originated; every relay shares it
    hops: int


@dataclass
class Mailbox:
    """Per-robot flood state: what arrived, what was seen, what to relay next."""

    delivered: list[Delivery] = field(default_factory=list)
    seen: set[tuple[int, int]] = field(default_factory=set)
    outbound: list[Delivery] = field(default_factory=list)


def new_mailboxes(robot_ids) -> dict[int, Mailbox]:
    return {rid: Mailbox() for rid in sorted(robot_ids)}


def send(mailboxes: dict[int, Mailbox], origin: int, msg: Message) -> None:
    """Inject a freshly originated message; the origin never re-receives it,
    and a message with ttl 0 goes nowhere."""
    box = mailboxes[origin]
    box.seen.add(msg.msg_id)
    if msg.ttl > 0:
        box.outbound.append(Delivery(msg, 0))


def comm_neighbors(
    positions: dict[int, HexCoord], self_id: int, comm_range: int
) -> set[int]:
    """All other robots within comm_range hex cells of self_id."""
    own = positions[self_id]
    return {
        rid
        for rid, pos in positions.items()
        if rid != self_id and hex_distance(own, pos) <= comm_range
    }


def flood_round(
    positions: dict[int, HexCoord],
    mailboxes: dict[int, Mailbox],
    comm_range: int,
    tracker: TrackerLog,
    tick: int = 0,
    adjacency: Optional[dict[int, list[int]]] = None,
) -> int:
    """One synchronous relay round; returns the number of deliveries made.

    Iteration order is fixed (robot ids ascending, messages by (origin, seq))
    so the round is deterministic. Pass a precomputed adjacency map to skip
    re-deriving neighbor sets when positions have not changed.
    """
    next_outbound: dict[int, list[Delivery]] = {rid: [] for rid in mailboxes}
    deliveries = 0
    for rid in sorted(mailboxes):
        queue = sorted(mailboxes[rid].outbound, key=lambda d: d.message.msg_id)
        if not queue:
            continue
        if adjacency is not None:
            neighbors = adjacency[rid]
        else:
            neighbors = sorted(
                n for n in comm_neighbors(positions, rid, comm_range) if n in mailboxes
            )
        for msg, hops in queue:
            msg_id = msg.msg_id
            hops += 1
            relayed = Delivery(msg, hops)  # shared by every neighbor it reaches
            relays_on = hops < msg.ttl
            for nb in neighbors:
                nb_box = mailboxes[nb]
                if msg_id in nb_box.seen:
                    continue
                nb_box.seen.add(msg_id)
                nb_box.delivered.append(relayed)
                if relays_on:
                    next_outbound[nb].append(relayed)
                tracker.record(tick, msg, nb, hops)
                deliveries += 1
    for rid, box in mailboxes.items():
        box.outbound = next_outbound[rid]
    return deliveries


def flood_until_quiet(
    positions: dict[int, HexCoord],
    mailboxes: dict[int, Mailbox],
    comm_range: int,
    tracker: TrackerLog,
    tick: int = 0,
    adjacency: Optional[dict[int, list[int]]] = None,
) -> int:
    """Run flood rounds until no delivery occurs; returns total deliveries."""
    total = 0
    while True:
        made = flood_round(positions, mailboxes, comm_range, tracker, tick, adjacency)
        if made == 0:
            return total
        total += made


def connectivity_components(
    positions: dict[int, HexCoord], comm_range: int
) -> list[list[int]]:
    """Connected components of the comm graph, each sorted, ordered by least id."""
    remaining = set(positions)
    components = []
    while remaining:
        root = min(remaining)
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for rid in frontier:
                for nb in comm_neighbors(positions, rid, comm_range):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        components.append(sorted(seen))
        remaining -= seen
    return components
