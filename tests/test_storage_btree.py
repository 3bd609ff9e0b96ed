"""Unit and property tests for the B-link tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BLinkTree


class TestBasics:
    def test_empty_tree(self):
        tree = BLinkTree()
        assert len(tree) == 0
        assert tree.get("missing") is None
        assert "missing" not in tree
        assert list(tree.items()) == []

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BLinkTree(order=2)

    def test_insert_and_get(self):
        tree = BLinkTree(order=4)
        assert tree.insert("a", 1)
        assert tree.get("a") == 1
        assert "a" in tree
        assert len(tree) == 1

    def test_insert_duplicate_returns_false(self):
        tree = BLinkTree(order=4)
        tree.insert("a", 1)
        assert not tree.insert("a", 2)
        assert tree.get("a") == 2

    def test_insert_no_overwrite(self):
        tree = BLinkTree(order=4)
        tree.insert("a", 1)
        assert not tree.insert("a", 2, overwrite=False)
        assert tree.get("a") == 1

    def test_delete_present(self):
        tree = BLinkTree(order=4)
        tree.insert("a", 1)
        assert tree.delete("a")
        assert tree.get("a") is None
        assert len(tree) == 0

    def test_delete_absent(self):
        assert not BLinkTree().delete("nope")

    def test_get_default(self):
        assert BLinkTree().get("x", default="d") == "d"

    def test_many_inserts_force_splits(self):
        tree = BLinkTree(order=4)
        for i in range(500):
            tree.insert(i, i * 10)
        tree.check_invariants()
        assert len(tree) == 500
        assert all(tree.get(i) == i * 10 for i in range(500))

    def test_reverse_insert_order(self):
        tree = BLinkTree(order=4)
        for i in reversed(range(300)):
            tree.insert(i, i)
        tree.check_invariants()
        assert list(tree.keys()) == list(range(300))


class TestScans:
    def _tree(self):
        tree = BLinkTree(order=4)
        for i in range(0, 100, 2):
            tree.insert(i, str(i))
        return tree

    def test_full_scan_ordered(self):
        assert list(self._tree().keys()) == list(range(0, 100, 2))

    def test_bounded_scan(self):
        assert list(self._tree().keys(lo=10, hi=20)) == [10, 12, 14, 16, 18]

    def test_scan_lo_between_keys(self):
        assert list(self._tree().keys(lo=11, hi=20)) == [12, 14, 16, 18]

    def test_scan_empty_range(self):
        assert list(self._tree().keys(lo=50, hi=50)) == []

    def test_tuple_keys_prefix_range(self):
        tree = BLinkTree(order=4)
        for pid in range(5):
            for name in ("a", "b", "c"):
                tree.insert((pid, name), pid)
        keys = list(tree.keys(lo=(2, ""), hi=(3, "")))
        assert keys == [(2, "a"), (2, "b"), (2, "c")]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "get"]),
        st.integers(min_value=0, max_value=60),
    ),
    max_size=300,
))
def test_matches_dict_model(operations):
    """The tree behaves exactly like a dict, at any split boundary."""
    tree = BLinkTree(order=3)
    model = {}
    for op, key in operations:
        if op == "insert":
            created = tree.insert(key, key * 2)
            assert created == (key not in model)
            model[key] = key * 2
        elif op == "delete":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
    tree.check_invariants()
    assert dict(tree.items()) == model
    assert list(tree.keys()) == sorted(model)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=1000), max_size=200),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_range_scan_matches_model(keys, lo, hi):
    tree = BLinkTree(order=5)
    for key in keys:
        tree.insert(key, None)
    expected = sorted(k for k in keys if lo <= k < hi)
    assert list(tree.keys(lo=lo, hi=hi)) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), max_size=400))
def test_invariants_hold_under_churn(keys):
    """Insert everything, delete every other key, invariants still hold."""
    tree = BLinkTree(order=3)
    for key in keys:
        tree.insert(key, key)
    for key in keys[::2]:
        tree.delete(key)
    tree.check_invariants()


def _leaf_get(tree, key):
    """Point read through the tree structure, bypassing the hash shadow
    (``get`` answers from the shadow, so shadow bugs would self-verify)."""
    import bisect

    leaf, _ = tree._descend(key)
    idx = bisect.bisect_left(leaf.keys, key)
    if idx < len(leaf.keys) and leaf.keys[idx] == key:
        return leaf.values[idx]
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "overwrite", "no_overwrite",
                             "delete"]),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=250,
    ),
    st.integers(min_value=3, max_value=6),
)
def test_hash_shadow_stays_in_lockstep_with_leaves(operations, order):
    """The PR-4 dict shadow and the leaf level agree on every point read
    after every mutation — including across splits (small orders force
    them constantly) and the overwrite/no-overwrite branches."""
    tree = BLinkTree(order=order)
    touched = set()
    for step, (op, key) in enumerate(operations):
        if op == "insert":
            tree.insert(key, step)
        elif op == "overwrite":
            tree.insert(key, step, overwrite=True)
        elif op == "no_overwrite":
            tree.insert(key, step, overwrite=False)
        else:
            tree.delete(key)
        touched.add(key)
        assert tree.get(key) == _leaf_get(tree, key)
        assert (key in tree) == (_leaf_get(tree, key) is not None)
    for key in touched:
        assert tree.get(key) == _leaf_get(tree, key)
    assert len(tree) == len(tree._map)
    tree.check_invariants()  # includes the full shadow == leaves sweep
