"""Range-limited ad hoc communication: neighbor discovery, synchronous
TTL-bounded flooding with duplicate suppression, and trackers of every
multi-hop delivery.

Flooding runs in synchronous rounds. A robot that received a message at hop
count h relays it to all comm neighbors, who receive it at hop count h + 1,
while h < the message's ttl. Duplicates are dropped on (origin, seq), so a
robot at hop distance h from the origin receives the message exactly once,
at hop count h, iff h <= the ttl.

``flood_round`` runs one round over mailboxes, re-sends included, and is
the reference. ``flood_until_quiet`` floods the messages each origin has
just sent, as rounds run until none delivers would, from one breadth-first
search per origin: in round h a robot at hop distance h gets the message
from its least-id neighbor at distance h - 1, so the deliveries of a round
come in groups per (round, sender), which it hands to the tracker sorted in
the rounds' order (round, sender, origin, seq), one list per call. The
tracker decides what to keep: ``DeliveryCount`` only counts them, and
``TrackerLog`` formats them as tracker.csv rows for its ``write``, which
keeps them in memory unless it is given a file's.
Rather than per-robot inboxes, it fills in each origin's reach, the robots
within its messages' ttl: with one ttl for all, the comm graph's symmetry
makes them the origins the origin hears. It and ``connectivity_components``
read neighbors from ``neighbor_index``, a grid of comm_range-wide buckets
where each robot scans only the 3 x 3 buckets around its own;
``comm_neighbors`` is the all-pairs reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

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


class DeliveryCount:
    """Tracker that keeps only the number of deliveries."""

    def __init__(self) -> None:
        self.count = 0

    def add_groups(self, tick: int, groups: list, count: int) -> None:
        """Take one flood's delivery groups, count deliveries in all."""
        self.count += count

    def __len__(self) -> int:
        return self.count


class TrackerLog(DeliveryCount):
    """Observation record of every delivery across the ad hoc network, as
    the text of its tracker.csv rows handed to write, by default kept in
    parts (one string per flood) and parsed back into entries when read."""

    def __init__(self, write=None) -> None:
        super().__init__()
        self.parts: list[str] = []
        self.write = self.parts.append if write is None else write

    def add_groups(self, tick: int, groups: list, count: int) -> None:
        """Write one row per relay of the sorted (round, sender, origin,
        seq, relays) groups, its hops the round."""
        tails = [f",{hops}\n" for hops in range(groups[-1][0] + 1)] if groups else []
        lines = []
        for rnd, _, origin, seq, relays in groups:
            head = f"{tick},{origin},{seq},"  # a row up to its relay
            tail = tails[rnd]  # a row from its hops on
            lines.append(head + (tail + head).join(map(str, relays)) + tail)
        self.write("".join(lines))
        self.count += count

    def record(self, tick: int, msg: Message, relay: int, hops: int) -> None:
        self.write(f"{tick},{msg.origin},{msg.seq},{relay},{hops}\n")
        self.count += 1

    @property
    def entries(self) -> list[TrackEntry]:
        lines = "".join(self.parts).splitlines()
        return [TrackEntry._make(map(int, line.split(","))) for line in lines]


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


def neighbor_index(
    positions: dict[int, HexCoord], comm_range: int
) -> dict[int, list[int]]:
    """{rid: ascending ids of the other robots within comm_range} for every robot.

    Robots are bucketed by (q // comm_range, r // comm_range). A robot within
    comm_range differs by at most comm_range in q and in r, so it lies in one
    of the 3 x 3 buckets around the own one.
    """
    size = max(comm_range, 1)
    buckets: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for rid, (q, r) in positions.items():
        buckets.setdefault((q // size, r // size), []).append((rid, q, r))
    reach = 2 * comm_range  # |dq| + |dr| + |dq + dr| is twice the hex distance
    index: dict[int, list[int]] = {rid: [] for rid in positions}
    for (bq, br), members in buckets.items():
        # Pair each robot with the rest of its bucket and with the four buckets
        # ahead of it; the other four see this one as ahead of them.
        ahead = [
            robot
            for key in ((bq + 1, br - 1), (bq + 1, br), (bq + 1, br + 1), (bq, br + 1))
            for robot in buckets.get(key, ())
        ]
        for i, (rid, q, r) in enumerate(members):
            for other, oq, or_ in members[i + 1 :] + ahead:
                dq, dr = q - oq, r - or_
                if abs(dq) + abs(dr) + abs(dq + dr) <= reach:
                    index[rid].append(other)
                    index[other].append(rid)
    for neighbors in index.values():
        neighbors.sort()
    return index


def flood_round(
    positions: dict[int, HexCoord],
    mailboxes: dict[int, Mailbox],
    comm_range: int,
    tracker: TrackerLog,
    tick: int = 0,
) -> int:
    """One synchronous relay round; returns the number of deliveries made.

    Iteration order is fixed (robot ids ascending, messages by (origin, seq))
    so the round is deterministic. Neighbors come from ``comm_neighbors``,
    restricted to robots that have a mailbox.
    """
    next_outbound: dict[int, list[Delivery]] = {rid: [] for rid in mailboxes}
    deliveries = 0
    for rid in sorted(mailboxes):
        queue = sorted(mailboxes[rid].outbound, key=lambda d: d.message.msg_id)
        if not queue:
            continue
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


def _bfs_layers(
    masks: dict[int, int], robots: list[int], source: int, source_bit: int, depth: int
) -> tuple[list[list[tuple[int, tuple[int, ...]]]], list[int]]:
    """Breadth-first search from source to depth hops over neighbor bit masks
    (bit i stands for robots[i], robots ascending; source_bit is the source's
    own bit). Returns the layers and the robots reached, ascending. Layer
    h - 1 holds (sender, robots first reached at hop h) pairs, senders
    ascending, so each robot hangs under its least-id neighbor one hop nearer."""
    layers = []
    ball: list[int] = []
    reached = source_bit
    frontier = [source]
    while frontier and len(layers) < depth:
        layer = []
        reached_now: list[int] = []
        for sender in frontier:
            fresh = masks[sender] & ~reached
            if fresh:
                reached |= fresh
                relays = []
                while fresh:
                    low = fresh & -fresh
                    relays.append(robots[low.bit_length() - 1])
                    fresh ^= low
                layer.append((sender, relays))
                reached_now += relays
        layers.append(layer)
        frontier = sorted(reached_now)
        ball += frontier
    ball.sort()  # merges the layers' sorted runs
    return layers, ball


def flood_until_quiet(
    adjacency: dict[int, list[int]],
    outbox: dict[int, list[Message]],
    reach: dict[int, list[int]],
    tracker: DeliveryCount,
    tick: int = 0,
) -> int:
    """Flood each origin's freshly sent messages until no round delivers;
    returns the number of deliveries.

    adjacency lists neighbors ascending, as ``neighbor_index`` does; outbox
    maps an origin to its new messages, seqs distinct. reach[origin] is set
    to the ascending ids of the robots within the largest ttl of the
    origin's messages, the origin excluded. The tracker gets every delivery
    in the order the rounds of ``flood_round`` would make them, as sorted
    (round, sender, origin, seq, relays) groups.
    """
    robots = sorted(adjacency)  # bit i of a mask stands for robots[i]
    bit = {rid: 1 << i for i, rid in enumerate(robots)}
    masks = {rid: sum([bit[nb] for nb in neighbors]) for rid, neighbors in adjacency.items()}
    groups = []
    total = 0
    for origin, messages in outbox.items():
        depth = max(msg.ttl for msg in messages)
        layers, reach[origin] = _bfs_layers(masks, robots, origin, bit[origin], depth)
        for msg in messages:
            for rnd, layer in enumerate(layers[: msg.ttl], 1):
                for sender, relays in layer:
                    groups.append((rnd, sender, origin, msg.seq, relays))
                    total += len(relays)
    groups.sort()  # (round, sender, origin, seq) is unique: seqs differ per origin
    tracker.add_groups(tick, groups, total)
    return total


def connectivity_components(
    positions: dict[int, HexCoord], comm_range: int
) -> list[list[int]]:
    """Connected components of the comm graph, each sorted, ordered by least id."""
    adjacency = neighbor_index(positions, comm_range)
    assigned: set[int] = set()
    components = []
    for root in sorted(positions):
        if root in assigned:
            continue
        assigned.add(root)
        component = [root]
        for rid in component:  # grows while it is walked: a breadth-first search
            for nb in adjacency[rid]:
                if nb not in assigned:
                    assigned.add(nb)
                    component.append(nb)
        components.append(sorted(component))
    return components
