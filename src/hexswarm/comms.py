"""Range-limited ad hoc communication: neighbor discovery, synchronous
TTL-bounded flooding with duplicate suppression, and trackers of every
multi-hop delivery.

Flooding runs in synchronous rounds. A robot that received a message at hop
count h relays it to all comm neighbors, who receive it at hop count h + 1,
while h < the message's ttl. Duplicates are dropped on (origin, seq), so a
robot at hop distance h from the origin receives the message exactly once,
at hop count h, iff h <= the ttl.

The comm graph is one neighbor bit mask per robot, bit i for robot id i,
built by ``neighbor_masks`` from a grid of comm_range-wide buckets where
each robot scans only the 3 x 3 buckets around its own; ``comm_neighbors``
scans one robot against all others and is the reference.

``flood_round`` runs one round over mailboxes of ``Message``s, each with its
own ttl, re-sends included, and is the reference. ``flood_until_quiet``
floods what a run sends, each origin's fresh seqs to the tick's one ttl,
over the masks, round by round until none delivers: in round h each
sender, ascending, relays each origin it got at hop h - 1, ascending, to
the neighbors that lack that origin's messages. So a robot at hop distance
h gets them from its least-id neighbor at distance h - 1, and deliveries
come out in the rounds' order (round, sender, origin, seq, relay), with
nothing to sort. A flood hands its tracker.csv rows to a tracker, anything
with ``write``: a file's, or a ``TrackerLog``, which keeps them in memory.
Without a tracker it formats no rows and only counts.
Rather than per-robot inboxes, the flood fills in each origin's reach, the
mask of the robots within ttl hops of it: with one ttl for all, the comm
graph's symmetry makes them the origins the origin hears. So a message needs
no payload, only its (origin, seq): a listener reads what the origins it
hears report from tables the engine writes once a tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .hexworld import HexCoord, hex_distance


class Message(NamedTuple):
    """A message as the reference rounds (``send``, ``flood_round``) see it,
    with a ttl of its own and no payload: what robots report, the engine
    writes once a tick into the tables listeners read."""

    origin: int
    seq: int
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


class TrackerLog:
    """Observation record of every delivery across the ad hoc network, as
    the text of its tracker.csv rows, kept in parts (one string per flood)
    and parsed back into entries when read."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.write = self.parts.append  # the list's method: the log holds no cycle to itself

    def __len__(self) -> int:
        return sum(part.count("\n") for part in self.parts)

    def record(self, tick: int, msg: Message, relay: int, hops: int) -> None:
        self.write(f"{tick},{msg.origin},{msg.seq},{relay},{hops}\n")

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


def neighbor_masks(positions: dict[int, HexCoord], comm_range: int) -> dict[int, int]:
    """{rid: mask of the other robots within comm_range} for every robot, bit
    i of a mask standing for robot id i.

    Robots are bucketed by (q // comm_range, r // comm_range). A robot within
    comm_range differs by at most comm_range in q and in r, so it lies in one
    of the 3 x 3 buckets around the own one.
    """
    size = max(comm_range, 1)
    buckets: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for rid, (q, r) in positions.items():
        buckets.setdefault((q // size, r // size), []).append((rid, q, r))
    reach = 2 * comm_range  # |dq| + |dr| + |dq + dr| is twice the hex distance
    masks = dict.fromkeys(positions, 0)
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
                    masks[rid] |= 1 << other
                    masks[other] |= 1 << rid
    return masks


def ids_of(mask: int) -> list[int]:
    """The robot ids whose bits are set in mask, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


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


def flood_until_quiet(
    masks: dict[int, int],
    outbox: dict[int, Sequence[int]],
    ttl: int,
    reach: dict[int, int],
    tracker=None,
    tick: int = 0,
) -> int:
    """Flood each origin's freshly sent messages to ttl hops until no round
    delivers; returns the number of deliveries.

    masks holds each robot's neighbors, as ``neighbor_masks`` builds them;
    outbox maps an origin to the seqs of its new messages, ascending.
    reach[origin] is set to the mask of the robots within ttl hops of the
    origin, the origin excluded. A tracker's ``write`` gets the flood's rows,
    every delivery in the order the rounds of ``flood_round`` make them, in
    one call, an empty flood's included; with none, no row is formatted.
    """
    keep = tracker is not None
    heads = {}  # origin -> a row head per message, seq ascending (a count needs only len)
    reached = {}  # origin -> mask of the robots that hold its messages
    for origin, seqs in outbox.items():
        heads[origin] = [f"{tick},{origin},{seq}," for seq in seqs] if keep else seqs
        reached[origin] = 1 << origin
    queues = {origin: [origin] for origin in outbox} if ttl else {}  # sender -> origins
    lines = []
    total = 0
    rnd = 0
    while queues:
        rnd += 1
        tails = {1 << rid: f"{rid},{rnd}\n" for rid in masks} if keep else None  # a row's end
        relays_on = rnd < ttl
        relayed = {}
        for sender in sorted(queues):
            mask = masks[sender]
            for origin in sorted(queues[sender]):
                fresh = mask & ~reached[origin]  # each under its least-id neighbor a hop nearer
                if not fresh:
                    continue
                reached[origin] |= fresh
                total += fresh.bit_count() * len(heads[origin])
                rows = []
                while fresh and (keep or relays_on):  # a count alone walks no bits
                    low = fresh & -fresh
                    if relays_on:
                        relayed.setdefault(low.bit_length() - 1, []).append(origin)
                    if keep:
                        rows.append(tails[low])
                    fresh ^= low
                if keep:
                    for head in heads[origin]:
                        lines.append(head + head.join(rows))
        queues = relayed
    for origin, mask in reached.items():
        reach[origin] = mask ^ (1 << origin)
    if keep:
        tracker.write("".join(lines))
    return total


def connectivity_components(masks: dict[int, int]) -> list[list[int]]:
    """Connected components of the comm graph, each sorted, ordered by least id."""
    components = []
    left = sum(1 << rid for rid in masks)
    while left:
        component = frontier = left & -left
        while frontier:  # a breadth-first search, one layer a pass
            grown = 0
            for rid in ids_of(frontier):
                grown |= masks[rid]
            frontier = grown & ~component
            component |= frontier
        left &= ~component
        components.append(ids_of(component))
    return components
