"""Unit and property tests for hybrid metadata indexing (§4.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexing import (
    ROUTE_HASH,
    ROUTE_OVERRIDE,
    ROUTE_PATHWALK,
    ExceptionTable,
    HybridIndex,
    exception_table_from_wire,
    exception_table_to_wire,
    stable_hash,
)
from repro.metrics import load_share_extremes


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("name.jpg") == stable_hash("name.jpg")

    def test_tuple_keys(self):
        assert stable_hash((1, "a")) == stable_hash((1, "a"))
        assert stable_hash((1, "a")) != stable_hash((2, "a"))

    def test_tuple_not_string_concat_confusable(self):
        assert stable_hash(("ab", "c")) != stable_hash(("a", "bc"))

    def test_spread(self):
        """Hash values of distinct names cover many buckets."""
        buckets = {stable_hash("f{}".format(i)) % 16 for i in range(4096)}
        assert buckets == set(range(16))


class TestExceptionTable:
    def test_starts_empty(self):
        table = ExceptionTable()
        assert len(table) == 0 and table.version == 0

    def test_add_pathwalk_bumps_version(self):
        table = ExceptionTable()
        table.add_pathwalk("Makefile")
        assert "Makefile" in table.pathwalk
        assert table.version == 1

    def test_add_override(self):
        table = ExceptionTable()
        table.add_override("hot.jpg", 3)
        assert table.override["hot.jpg"] == 3

    def test_kinds_are_exclusive(self):
        table = ExceptionTable()
        table.add_pathwalk("x")
        table.add_override("x", 1)
        assert "x" not in table.pathwalk
        table.add_pathwalk("x")
        assert "x" not in table.override

    def test_remove(self):
        table = ExceptionTable()
        table.add_pathwalk("x")
        version = table.version
        assert table.remove("x")
        assert table.version == version + 1
        assert not table.remove("x")

    def test_copy_is_independent(self):
        """A table received over the wire shares no state with the
        coordinator's own."""
        table = ExceptionTable()
        table.add_pathwalk("x")
        clone = exception_table_from_wire(exception_table_to_wire(table))
        clone.add_override("y", 1)
        assert "y" not in table.override

    def test_wire_round_trip(self):
        table = ExceptionTable()
        table.add_pathwalk("Makefile")
        table.add_override("hot.jpg", 5)
        restored = exception_table_from_wire(exception_table_to_wire(table))
        assert restored.version == table.version
        assert restored.pathwalk == table.pathwalk
        assert restored.override == table.override


class TestHybridIndex:
    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            HybridIndex(0)

    def test_route_precedence(self):
        table = ExceptionTable()
        table.add_pathwalk("walked")
        table.add_override("pinned", 2)
        index = HybridIndex(4, table)
        assert index.route("pinned") == (ROUTE_OVERRIDE, 2)
        assert index.route("walked") == (ROUTE_PATHWALK, None)
        kind, target = index.route("plain")
        assert kind == ROUTE_HASH and 0 <= target < 4

    def test_locate_resolves_pathwalk(self):
        table = ExceptionTable()
        table.add_pathwalk("Makefile")
        index = HybridIndex(4, table)
        targets = {index.locate(pid, "Makefile") for pid in range(64)}
        # Path-walk placement spreads the same name across nodes.
        assert len(targets) > 1

    def test_hash_placement_ignores_parent(self):
        index = HybridIndex(4)
        assert index.locate(1, "f.jpg") == index.locate(99, "f.jpg")

    def test_client_target_definitive_for_hash(self):
        index = HybridIndex(4)
        target, definitive = index.client_target("f.jpg")
        assert definitive and target == index.hash_name("f.jpg")

    def test_client_target_random_for_pathwalk(self):
        table = ExceptionTable()
        table.add_pathwalk("Makefile")
        index = HybridIndex(8, table)
        rng = random.Random(0)
        targets = {
            index.client_target("Makefile", rng)[0] for _ in range(100)
        }
        assert len(targets) > 1
        assert all(
            not index.client_target("Makefile", rng)[1] for _ in range(5)
        )

    def test_override_target_respected(self):
        table = ExceptionTable()
        table.add_override("hot", 7)
        index = HybridIndex(8, table)
        assert index.locate(123, "hot") == 7


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=16))
def test_unique_names_balance(num_nodes):
    """§A.1, case 1: many unique filenames hash to a near-even spread."""
    index = HybridIndex(num_nodes)
    counts = [0] * num_nodes
    for i in range(20000):
        counts[index.hash_name("file{:07d}.jpg".format(i))] += 1
    max_share, min_share = load_share_extremes(counts)
    ideal = 1.0 / num_nodes
    assert max_share < ideal * 1.25
    assert min_share > ideal * 0.75


def test_pathwalk_redirection_balances_hot_name():
    """§A.1, case 2: a dominating filename spreads once path-walked."""
    num_nodes = 8
    table = ExceptionTable()
    index = HybridIndex(num_nodes, table)
    parents = list(range(1, 8001))

    def distribution():
        counts = [0] * num_nodes
        for pid in parents:
            counts[index.locate(pid, "Makefile")] += 1
        return counts

    before = distribution()
    assert max(before) == len(parents)  # all on one node
    table.add_pathwalk("Makefile")
    after = distribution()
    max_share, min_share = load_share_extremes(after)
    assert max_share < 0.25 and min_share > 0.03
