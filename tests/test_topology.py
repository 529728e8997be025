import math
from importlib import resources

import pytest

from flexrsa import heuristic
from flexrsa.physics import propagation_ps, round_half_up
from flexrsa.topology import Link, Network, TopologyError, load_topology

from util import make_net

US_TEXT = resources.files("flexrsa").joinpath("data/us_backbone.txt").read_text()
ABILENE_TEXT = resources.files("flexrsa").joinpath("data/abilene.txt").read_text()


class TestLoad:
    def test_us_backbone_counts(self):
        net = load_topology(US_TEXT, slots_per_link=128)
        assert len(net.nodes) == 24
        assert net.num_arcs == 84

    def test_abilene_counts(self):
        net = load_topology(ABILENE_TEXT, slots_per_link=128)
        assert len(net.nodes) == 12
        assert net.num_arcs == 30  # 15 undirected edges

    def test_empty_node_section(self):
        with pytest.raises(TopologyError):
            load_topology("# nothing here\n", slots_per_link=8)

    def test_duplicate_node(self):
        with pytest.raises(TopologyError, match="line 2"):
            load_topology("node a\nnode a\n", slots_per_link=8)

    def test_dangling_endpoint(self):
        with pytest.raises(TopologyError, match="line 3"):
            load_topology("node a\nnode b\nlink a c 10\n", slots_per_link=8)

    def test_non_positive_length(self):
        with pytest.raises(TopologyError, match="non-positive"):
            load_topology("node a\nnode b\nlink a b 0\n", slots_per_link=8)

    def test_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            load_topology("node a\nlink a a 5\n", slots_per_link=8)
        with pytest.raises(TopologyError, match="self-loop at node 'a'"):
            Link(0, "a", "a", 5.0, 0)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("node a b\n", "line 1: expected 'node <id>'"),
            ("node a\nnode b\nlink a b\n", "line 3: expected 'link <src> <dst> <length_km>'"),
            ("node a\nnode b\nlink c a 10\n", "line 3: link endpoint 'c' not declared"),
        ],
        ids=["node-tokens", "link-tokens", "undeclared-source"],
    )
    def test_malformed_line_names_the_line(self, text, message):
        with pytest.raises(TopologyError, match=message):
            load_topology(text, slots_per_link=8)

    def test_unknown_directive_with_line_number(self):
        with pytest.raises(TopologyError, match="line 2"):
            load_topology("node a\nfoo bar\n", slots_per_link=8)

    def test_bad_length_token(self):
        with pytest.raises(TopologyError, match="bad length"):
            load_topology("node a\nnode b\nlink a b ten\n", slots_per_link=8)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_length_names_the_line(self, token):
        with pytest.raises(TopologyError, match=f"line 3: length '{token}' is not finite"):
            load_topology(f"node a\nnode b\nlink a b {token}\n", slots_per_link=8)

    def test_comments_and_blanks_ignored(self):
        net = load_topology("# c\n\nnode a\nnode b # trailing\nlink a b 5\n", slots_per_link=4)
        assert net.nodes == ("a", "b")
        assert net.num_arcs == 2


class TestInvariants:
    def test_every_arc_has_equal_reverse(self):
        net = load_topology(US_TEXT, slots_per_link=16)
        by_pair = {(l.src, l.dst): l for l in net.links}
        for link in net.links:
            rev = by_pair[(link.dst, link.src)]
            assert rev.length_km == link.length_km
            assert rev.delay_ps == link.delay_ps
            assert net.links[link.id ^ 1] is rev

    @pytest.mark.parametrize(
        "links",
        [
            # a one-way arc: arc 2 has no twin
            [("A", "B", 100, 100), ("B", "A", 100, 100), ("B", "C", 100, 100)],
            # twins whose delays differ
            [("A", "B", 100, 100), ("B", "A", 100, 100), ("B", "C", 100, 100), ("C", "B", 100, 200)],
            # twins whose lengths differ
            [("A", "B", 100, 100), ("B", "A", 200, 100)],
            # a pair whose second arc is not the first reversed
            [("A", "B", 100, 100), ("B", "C", 100, 100), ("C", "B", 100, 100), ("B", "A", 100, 100)],
        ],
        ids=["one-way", "delays-differ", "lengths-differ", "not-reversed"],
    )
    def test_arcs_not_in_fiber_pairs_are_rejected(self, links):
        arcs = tuple(
            Link(i, src, dst, km, propagation_ps(km_for_delay, 2.0e5))
            for i, (src, dst, km, km_for_delay) in enumerate(links)
        )
        with pytest.raises(TopologyError, match="twin|reversed"):
            Network(("A", "B", "C"), arcs, slots_per_link=4)

    @pytest.mark.parametrize(
        "nodes, ids, message",
        [
            (("A", "B", "A"), (0, 1), "duplicate node id"),
            (("A", "C"), (0, 1), "arc 0 references unknown node"),
            (("A", "B"), (0, 2), "arc ids must be dense, found 2 at index 1"),
        ],
        ids=["duplicate-node", "unknown-node", "sparse-ids"],
    )
    def test_network_checks_nodes_and_arc_ids(self, nodes, ids, message):
        arcs = (Link(ids[0], "A", "B", 100.0, 1), Link(ids[1], "B", "A", 100.0, 1))
        with pytest.raises(TopologyError, match=message):
            Network(nodes, arcs, slots_per_link=4)

    @pytest.mark.parametrize("length_km, delay_ps, reason", [(-1.0, 0, "length"), (100.0, -1, "delay")])
    def test_negative_arc_attributes_rejected(self, length_km, delay_ps, reason):
        # the search bound and the twin rule assume delays are non-negative
        with pytest.raises(TopologyError, match=f"negative {reason} on arc 3"):
            Link(3, "a", "b", length_km, delay_ps)

    @pytest.mark.parametrize("length_km", [math.inf, -math.inf, math.nan])
    def test_non_finite_arc_length_rejected(self, length_km):
        with pytest.raises(TopologyError, match="length on arc 3 is not finite"):
            Link(3, "a", "b", length_km, 0)

    def test_delay_recomputable_from_length(self):
        net = load_topology(US_TEXT, slots_per_link=16, propagation_speed_km_s=2.0e5)
        for link in net.links:
            assert link.delay_ps == round_half_up(link.length_km / 2.0e5 * 1e12)

    def test_outgoing_sum_equals_arc_count(self):
        net = load_topology(US_TEXT, slots_per_link=16)
        assert sum(len(net.outgoing(v)) for v in net.nodes) == 84

    def test_slots_validated(self):
        with pytest.raises(TopologyError):
            load_topology("node a\nnode b\nlink a b 5\n", slots_per_link=0)

    @pytest.mark.parametrize("speed", [0.0, -2.0e5, float("inf"), float("nan")])
    def test_propagation_speed_validated(self, speed):
        # a negative speed would give negative arc delays, a zero one a division by zero
        with pytest.raises(TopologyError, match="propagation_speed_km_s"):
            load_topology("node a\nnode b\nlink a b 5\n", slots_per_link=4, propagation_speed_km_s=speed)
        with pytest.raises(TopologyError, match="propagation_speed_km_s"):
            Network(("a", "b"), (), slots_per_link=4, propagation_speed_km_s=speed)


class TestOutgoing:
    def test_triangle_degrees(self):
        net = make_net([("A", "B", 100), ("B", "C", 100), ("A", "C", 100)], slots=8)
        assert len(net.outgoing("A")) == 2
        assert [l.dst for l in net.outgoing("A")] == ["B", "C"]

    def test_isolated_node(self):
        net = load_topology("node a\nnode b\nnode c\nlink a b 5\n", slots_per_link=4)
        assert net.outgoing("c") == ()

    def test_unknown_node(self):
        net = make_net([("A", "B", 100)], slots=8)
        with pytest.raises(TopologyError):
            net.outgoing("Z")

    def test_route_memo_out_of_equality(self):
        a = load_topology(US_TEXT, slots_per_link=16)
        b = load_topology(US_TEXT, slots_per_link=16)
        assert len(tuple(heuristic.pair_routes(a, "Seattle", "Miami", 3))) == 3
        assert isinstance(a.route_memo["Seattle", "Miami"], heuristic._RouteTable)
        a.draw_memo[("traffic", 1)] = ()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "route_memo" not in repr(a) and "draw_memo" not in repr(a)
        assert b.route_memo == {} and b.draw_memo == {}

    def test_stable_order(self):
        net = make_net([("A", "C", 100), ("A", "B", 100), ("A", "D", 100)], slots=8)
        assert [l.dst for l in net.outgoing("A")] == ["B", "C", "D"]
