"""Comms tests: neighbor discovery, TTL flooding against a BFS hop-count
oracle, duplicate suppression, and connectivity components. The neighbor
masks and flooding to quiescence are held to their references,
``comm_neighbors`` and rounds of ``flood_round``."""

import csv
import io
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexswarm.bco import DanceBoard
from hexswarm.comms import (
    Message,
    TrackerLog,
    comm_neighbors,
    connectivity_components,
    flood_round,
    flood_until_quiet,
    ids_of,
    neighbor_masks,
    new_mailboxes,
    send,
)
from hexswarm.hexworld import Direction, HexCoord, accessible_cells, hex_distance, make_world

PROPERTY = settings(max_examples=300, deadline=None, database=None)


def msg(origin=0, seq=0, ttl=5):
    return Message(origin, seq, ttl)


def bfs_hops(positions, comm_range, origin):
    """Hop count from origin to every robot over the comm graph."""
    hops = {origin: 0}
    frontier = deque([origin])
    while frontier:
        rid = frontier.popleft()
        for nb in comm_neighbors(positions, rid, comm_range):
            if nb not in hops:
                hops[nb] = hops[rid] + 1
                frontier.append(nb)
    return hops


def all_pairs_masks(positions, comm_range):
    """neighbor_masks from one comm_neighbors scan per robot."""
    return {
        rid: sum(1 << nb for nb in comm_neighbors(positions, rid, comm_range))
        for rid in positions
    }


def components_of(positions, comm_range):
    return connectivity_components(neighbor_masks(positions, comm_range))


def random_positions(rng, n, span=7):
    cells = set()
    while len(cells) < n:
        cells.add(HexCoord(rng.randint(-span, span), rng.randint(-span, span)))
    return dict(enumerate(sorted(cells)))


class TestDanceAdvert:
    """The leader's advert is the DanceBoard its hearers get."""

    @pytest.mark.parametrize("strength", [-0.1, 1.5, float("nan")])
    def test_strength_outside_0_to_1_is_rejected(self, strength):
        with pytest.raises(ValueError, match=r"^dance strength must be in \[0,1\], got "):
            DanceBoard(0, Direction.E, strength, 0)

    @pytest.mark.parametrize("strength", [0.0, 1.0])
    def test_strength_at_either_bound_is_accepted(self, strength):
        assert DanceBoard(3, Direction.W, strength, 7).strength == strength


class TestCommNeighbors:
    def test_within_range_is_mutual(self):
        positions = {0: HexCoord(0, 0), 1: HexCoord(1, 0)}
        assert comm_neighbors(positions, 0, 2) == {1}
        assert comm_neighbors(positions, 1, 2) == {0}

    def test_out_of_range_sees_nothing(self):
        positions = {0: HexCoord(0, 0), 1: HexCoord(3, 0)}
        assert comm_neighbors(positions, 0, 2) == set()
        assert comm_neighbors(positions, 1, 2) == set()

    def test_line_of_five_interior_sees_two(self):
        positions = {i: HexCoord(i, 0) for i in range(5)}
        for i in (1, 2, 3):
            assert comm_neighbors(positions, i, 1) == {i - 1, i + 1}
        assert comm_neighbors(positions, 0, 1) == {1}
        assert comm_neighbors(positions, 4, 1) == {3}

    def test_unknown_robot_id_raises(self):
        with pytest.raises(KeyError):
            comm_neighbors({0: HexCoord(0, 0)}, 99, 2)


def union_find_components(positions, comm_range):
    """Components from every pair of robots, each sorted, ordered by least id."""
    parent = {rid: rid for rid in positions}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ids = sorted(positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if hex_distance(positions[a], positions[b]) <= comm_range:
                parent[find(a)] = find(b)
    groups = {}
    for rid in ids:
        groups.setdefault(find(rid), []).append(rid)
    return sorted(groups.values())


# Robot ids are sparse and cells may repeat; coordinates run negative, so
# bucket edges fall under floor division on both sides of zero.
robot_cells = st.dictionaries(
    st.integers(0, 60),
    st.builds(HexCoord, st.integers(-12, 12), st.integers(-12, 12)),
    min_size=1,
    max_size=30,
)


class TestNeighborIndex:
    @PROPERTY
    @given(robot_cells, st.integers(1, 50))  # the widest board spans 48 cells
    def test_matches_all_pairs_reference(self, positions, comm_range):
        expected = all_pairs_masks(positions, comm_range)
        assert neighbor_masks(positions, comm_range) == expected

    @PROPERTY
    @given(robot_cells, st.integers(1, 50))
    def test_components_match_all_pairs_reference(self, positions, comm_range):
        expected = union_find_components(positions, comm_range)
        assert components_of(positions, comm_range) == expected

    def test_wide_range_is_no_slower_than_all_pairs(self):
        """With every robot in range the grid degenerates to a few buckets;
        it must still cost no more than scanning all pairs."""
        world = make_world(30, 1, HexCoord(20, 0), HexCoord(-20, 0))
        cells = random.Random(3).sample(list(accessible_cells(world)), 200)
        positions = dict(enumerate(cells))

        def all_pairs():
            return all_pairs_masks(positions, 60)

        def best_of(fn, repeats=5):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        assert neighbor_masks(positions, 60) == all_pairs()
        assert best_of(lambda: neighbor_masks(positions, 60)) <= best_of(all_pairs)


def flood_fresh(positions, comm_range, messages, tracker=None, tick=0):
    """flood_until_quiet over the neighbor masks of positions, every message
    freshly sent by its origin with the one ttl they all have; returns
    (deliveries, reach)."""
    (ttl,) = {message.ttl for message in messages}
    outbox = {}
    for message in sorted(messages):  # each origin's seqs ascending
        outbox.setdefault(message.origin, []).append(message.seq)
    reach = {}
    made = flood_until_quiet(
        neighbor_masks(positions, comm_range),
        outbox,
        ttl,
        reach,
        tracker,
        tick,
    )
    return made, reach


def reach_ids(reach):
    """{origin: ascending ids of the robots in its reach mask}."""
    return {origin: ids_of(mask) for origin, mask in reach.items()}


class TestFloodRound:
    def chain(self):
        return {0: HexCoord(0, 0), 1: HexCoord(1, 0), 2: HexCoord(2, 0)}

    def test_ttl_two_reaches_end_of_chain_in_two_rounds(self):
        positions = self.chain()
        boxes = new_mailboxes(positions)
        tracker = TrackerLog()
        send(boxes, 0, msg(origin=0, ttl=2))
        assert flood_round(positions, boxes, 1, tracker) == 1  # reaches robot 1
        assert [d.hops for d in boxes[1].delivered] == [1]
        assert boxes[2].delivered == []
        assert flood_round(positions, boxes, 1, tracker) == 1  # reaches robot 2
        assert [d.hops for d in boxes[2].delivered] == [1 + 1]
        assert flood_round(positions, boxes, 1, tracker) == 0

    def test_ttl_one_never_reaches_end_of_chain(self):
        tracker = TrackerLog()
        _, reach = flood_fresh(self.chain(), 1, [msg(origin=0, ttl=1)], tracker)
        assert reach_ids(reach) == {0: [1]}
        assert [e.relay for e in tracker.entries] == [1]

    def test_reinjection_after_full_delivery_is_silent(self):
        positions = self.chain()
        boxes = new_mailboxes(positions)
        tracker = TrackerLog()
        send(boxes, 0, msg(origin=0, seq=0, ttl=5))
        flood_by_rounds(positions, boxes, 1, tracker, 0)
        before = len(tracker)
        send(boxes, 0, msg(origin=0, seq=0, ttl=5))
        assert flood_by_rounds(positions, boxes, 1, tracker, 0) == 0
        assert len(tracker) == before

    def test_ttl_zero_message_is_never_relayed(self):
        tracker = TrackerLog()
        made, reach = flood_fresh(self.chain(), 1, [msg(origin=0, ttl=0)], tracker)
        assert made == 0
        assert reach_ids(reach) == {0: []}
        assert tracker.entries == []

    def test_no_robot_receives_a_message_twice(self):
        rng = random.Random(5)
        for _ in range(50):
            positions = random_positions(rng, 10)
            sends = [msg(origin=origin, seq=origin, ttl=4) for origin in (0, 3, 7)]
            tracker = TrackerLog()
            flood_fresh(positions, 2, sends, tracker)
            copies = [(e.relay, e.origin, e.seq) for e in tracker.entries]
            assert len(copies) == len(set(copies))

    def test_delivery_set_and_hops_match_bfs_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            positions = random_positions(rng, 12)
            ttl = rng.choice((1, 2, 3, 5))
            origin = rng.randrange(12)
            tracker = TrackerLog()
            _, reach = flood_fresh(positions, 2, [msg(origin=origin, ttl=ttl)], tracker)
            oracle = bfs_hops(positions, 2, origin)
            assert reach_ids(reach) == {origin: sorted(r for r, h in oracle.items() if 0 < h <= ttl)}
            for rid in positions:
                got = {(e.origin, e.seq): e.hops for e in tracker.entries if e.relay == rid}
                if rid == origin:
                    assert got == {}
                elif rid in oracle and oracle[rid] <= ttl:
                    assert got == {(origin, 0): oracle[rid]}
                else:
                    assert got == {}

    def test_flood_is_deterministic(self):
        rng = random.Random(23)
        positions = random_positions(rng, 10)

        def one_run():
            tracker = TrackerLog()
            sends = [msg(origin=origin, seq=5, ttl=3) for origin in range(10)]
            flood_fresh(positions, 2, sends, tracker, tick=9)
            return tracker.entries

        assert one_run() == one_run()


class TestConnectivityComponents:
    def test_single_component(self):
        positions = {i: HexCoord(i, 0) for i in range(4)}
        assert components_of(positions, 2) == [[0, 1, 2, 3]]

    def test_two_clusters(self):
        positions = {
            0: HexCoord(0, 0),
            1: HexCoord(1, 0),
            2: HexCoord(10, 0),
            3: HexCoord(11, 0),
        }
        assert components_of(positions, 2) == [[0, 1], [2, 3]]

    def test_matches_union_find_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            positions = random_positions(rng, 10)
            assert components_of(positions, 2) == union_find_components(positions, 2)

    def test_partition_covers_all_robots_disjointly(self):
        rng = random.Random(37)
        for _ in range(50):
            positions = random_positions(rng, 8)
            comps = components_of(positions, rng.choice((1, 2, 3)))
            flat = [rid for comp in comps for rid in comp]
            assert sorted(flat) == sorted(positions)
            assert len(flat) == len(set(flat))


def flood_by_rounds(positions, boxes, comm_range, tracker, tick):
    """The reference: flood_round with its own neighbor scan, until quiet."""
    total = 0
    while made := flood_round(positions, boxes, comm_range, tracker, tick):
        total += made
    return total


@st.composite
def flood_cases(draw, ids=st.integers(0, 60), seqs=st.integers(0, 9)):
    """Robots packed densely enough for many ties between relays, and 1-4
    origins each freshly sending 1-3 messages with distinct seqs, all with
    one ttl."""
    cells = st.builds(HexCoord, st.integers(-4, 4), st.integers(-4, 4))
    positions = draw(st.dictionaries(ids, cells, min_size=2, max_size=16))
    comm_range = draw(st.integers(1, 3))
    ttl = draw(st.integers(0, 5))
    origins = st.lists(st.sampled_from(sorted(positions)), min_size=1, max_size=4, unique=True)
    sends = []
    for origin in draw(origins):
        for seq in draw(st.lists(seqs, min_size=1, max_size=3, unique=True)):
            sends.append(Message(origin, seq, ttl))
    return positions, comm_range, sends


def delivered_to(boxes, msg_id):
    """Ascending ids of the robots whose mailbox got the message msg_id."""
    got = {r for r, box in boxes.items() for d in box.delivered if d.message.msg_id == msg_id}
    return sorted(got)


class TestFloodUntilQuiet:
    @PROPERTY
    @given(flood_cases())
    def test_matches_rounds_driven_to_quiescence(self, case):
        positions, comm_range, sends = case
        tracker = TrackerLog()
        made, reach = flood_fresh(positions, comm_range, sends, tracker, tick=4)

        boxes = new_mailboxes(positions)
        for message in sends:
            send(boxes, message.origin, message)
        rounds_tracker = TrackerLog()
        rounds_made = flood_by_rounds(positions, boxes, comm_range, rounds_tracker, 4)

        assert made == rounds_made
        assert tracker.entries == rounds_tracker.entries
        assert len(tracker) == len(rounds_tracker)
        assert sorted(reach) == sorted({m.origin for m in sends})
        for origin, got in reach.items():
            first = next(m for m in sends if m.origin == origin)
            assert ids_of(got) == delivered_to(boxes, first.msg_id)

    @PROPERTY
    @given(flood_cases())
    def test_counting_sink_gets_the_same_count(self, case):
        """A flood without a tracker formats no rows, yet returns the count
        and reach it returns with a TrackerLog."""
        positions, comm_range, sends = case
        logged = TrackerLog()
        made, reach = flood_fresh(positions, comm_range, sends, logged)
        assert flood_fresh(positions, comm_range, sends, None) == (made, reach)
        assert len(logged) == len(logged.entries) == made

    def flood_as_rounds_do(self, positions, comm_range, sends):
        """(tracker entries, reach) of flood_until_quiet, its entries held to
        those of the rounds driven to quiescence."""
        tracker = TrackerLog()
        made, reach = flood_fresh(positions, comm_range, sends, tracker, tick=7)
        boxes = new_mailboxes(positions)
        for message in sends:
            send(boxes, message.origin, message)
        rounds = TrackerLog()
        assert made == flood_by_rounds(positions, boxes, comm_range, rounds, 7) == len(tracker)
        assert tracker.entries == rounds.entries
        return [(e.origin, e.seq, e.relay, e.hops) for e in tracker.entries], reach

    def test_ttl_zero_delivers_nothing_and_reaches_no_one(self):
        line = {i: HexCoord(i, 0) for i in range(4)}
        sends = [msg(0, 0, ttl=0), msg(0, 1, ttl=0), msg(2, 0, ttl=0), msg(3, 4, ttl=0)]
        tracker = TrackerLog()
        made, reach = flood_fresh(line, 1, sends, tracker)
        assert made == 0
        assert tracker.parts == [""]  # one flood, no row
        assert reach == {0: 0, 2: 0, 3: 0}
        assert self.flood_as_rounds_do(line, 1, sends) == ([], reach)

    def test_messages_given_out_of_seq_order_come_out_seq_ascending(self):
        positions = {0: HexCoord(0, 0), 1: HexCoord(1, 0), 2: HexCoord(0, 1), 3: HexCoord(2, 0)}
        sends = [msg(0, 5, ttl=2), msg(0, 2, ttl=2), msg(0, 9, ttl=2), msg(3, 1, ttl=2)]
        rows, reach = self.flood_as_rounds_do(positions, 1, sends)
        assert rows == [
            (0, 2, 1, 1), (0, 2, 2, 1), (0, 5, 1, 1), (0, 5, 2, 1), (0, 9, 1, 1), (0, 9, 2, 1),
            (3, 1, 1, 1),
            (0, 2, 3, 2), (0, 5, 3, 2), (0, 9, 3, 2), (3, 1, 0, 2), (3, 1, 2, 2),
        ]
        assert reach_ids(reach) == {0: [1, 2, 3], 3: [0, 1, 2]}

    @PROPERTY
    @given(
        flood_cases(ids=st.integers(0, 10**6), seqs=st.integers(0, 10**6)),
        st.integers(0, 10**6),
    )
    def test_tracker_text_is_the_csv_of_its_entries(self, case, tick):
        """entries parse with int(), which forgives a stray space or carriage
        return; the text itself must be what csv.writer makes of them."""
        positions, comm_range, sends = case
        fresh = TrackerLog()
        flood_fresh(positions, comm_range, sends, fresh, tick)
        boxes = new_mailboxes(positions)
        for message in sends:
            send(boxes, message.origin, message)
        rounds = TrackerLog()
        flood_by_rounds(positions, boxes, comm_range, rounds, tick)
        for tracker in (fresh, rounds):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(tracker.entries)
            assert "".join(tracker.parts) == buf.getvalue()

    @PROPERTY
    @given(
        st.dictionaries(
            st.integers(0, 60),
            st.builds(HexCoord, st.integers(-4, 4), st.integers(-4, 4)),
            min_size=1,
            max_size=16,
        ),
        st.integers(1, 3),
        st.integers(0, 5),
    )
    def test_with_one_ttl_each_robot_hears_the_origins_it_reaches(
        self, positions, comm_range, ttl
    ):
        """The engine's assumption: when every robot sends with one ttl, the
        origins robot r hears are exactly the robots r's own messages reach."""
        sends = [Message(rid, 0, ttl) for rid in sorted(positions)]
        _, reach = flood_fresh(positions, comm_range, sends)

        boxes = new_mailboxes(positions)
        for message in sends:
            send(boxes, message.origin, message)
        flood_by_rounds(positions, boxes, comm_range, TrackerLog(), 0)

        for rid, box in boxes.items():
            assert {d.message.origin for d in box.delivered} == set(ids_of(reach[rid]))
