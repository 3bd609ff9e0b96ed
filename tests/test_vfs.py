"""Unit tests for the client-side VFS model: dcache, path utilities,
and the path-walk state machine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.costs import CostModel
from repro.net.rpc import RpcError, RpcFailure
from repro.sim import Environment
from repro.vfs import (
    DENTRY_CACHE_COST_BYTES,
    DentryCache,
    InodeAttrs,
    LOOKUP_PARENT,
    PathWalker,
    ROOT_INO,
)
from repro.vfs.attrs import make_fake_dir_attrs
from repro.vfs.pathwalk import (
    basename,
    join_path,
    normalize_path,
    parent_path,
    split_path,
)


def _attrs(ino, is_dir=False, mode=0o755):
    return InodeAttrs(ino=ino, is_dir=is_dir, mode=mode)


class TestPathUtilities:
    def test_normalize_collapses_slashes(self):
        assert normalize_path("/a//b///c") == "/a/b/c"

    def test_normalize_strips_trailing_slash(self):
        assert normalize_path("/a/b/") == "/a/b"

    def test_root(self):
        assert normalize_path("/") == "/"
        assert split_path("/") == []

    def test_relative_rejected(self):
        with pytest.raises(ValueError):
            normalize_path("a/b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_path("")

    def test_dot_components_rejected(self):
        with pytest.raises(ValueError):
            normalize_path("/a/./b")
        with pytest.raises(ValueError):
            normalize_path("/a/../b")

    def test_split(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_join(self):
        assert join_path("/", "a") == "/a"
        assert join_path("/a", "b") == "/a/b"

    def test_parent_and_basename(self):
        assert parent_path("/a/b/c") == "/a/b"
        assert parent_path("/a") == "/"
        assert basename("/a/b") == "b"

    def test_parent_of_root_rejected(self):
        with pytest.raises(ValueError):
            parent_path("/")
        with pytest.raises(ValueError):
            basename("/")

    @given(st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_characters="/\x00",
                blacklist_categories=("Cs",),
            ),
            min_size=1, max_size=8,
        ).filter(lambda s: s not in (".", "..")),
        min_size=1, max_size=6,
    ))
    def test_join_split_round_trip(self, names):
        path = "/"
        for name in names:
            path = join_path(path, name)
        assert split_path(path) == names


class TestDentryCache:
    def test_miss_then_hit(self):
        cache = DentryCache()
        assert cache.lookup(ROOT_INO, "a") is None
        cache.insert(ROOT_INO, "a", _attrs(2, is_dir=True))
        entry = cache.lookup(ROOT_INO, "a")
        assert entry is not None and entry.attrs.ino == 2
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_unlimited_budget_never_evicts(self):
        cache = DentryCache(budget_bytes=None)
        for i in range(1000):
            cache.insert(ROOT_INO, "f{}".format(i), _attrs(i))
        assert len(cache) == 1000 and cache.evictions == 0

    def test_budget_evicts_lru(self):
        cache = DentryCache(budget_bytes=3 * DENTRY_CACHE_COST_BYTES)
        for i in range(3):
            cache.insert(ROOT_INO, "d{}".format(i), _attrs(i, is_dir=True))
        cache.lookup(ROOT_INO, "d0")  # refresh d0
        cache.insert(ROOT_INO, "d3", _attrs(3, is_dir=True))
        assert cache.peek(ROOT_INO, "d1") is None  # LRU victim
        assert cache.peek(ROOT_INO, "d0") is not None

    def test_bytes_used_accounting(self):
        cache = DentryCache()
        cache.insert(ROOT_INO, "a", _attrs(2))
        assert cache.bytes_used == DENTRY_CACHE_COST_BYTES

    def test_pinned_entries_survive(self):
        cache = DentryCache(budget_bytes=2 * DENTRY_CACHE_COST_BYTES)
        cache.insert(ROOT_INO, "pin", _attrs(1, is_dir=True), pinned=True)
        for i in range(10):
            cache.insert(ROOT_INO, "d{}".format(i), _attrs(i + 2))
        assert cache.peek(ROOT_INO, "pin") is not None

    def test_reinsert_preserves_pin(self):
        """A default-args refresh of a pinned entry must keep the pin —
        unpinning on re-insert let the root-directory working set be
        evicted after a refresh."""
        cache = DentryCache(budget_bytes=2 * DENTRY_CACHE_COST_BYTES)
        cache.insert(ROOT_INO, "pin", _attrs(1, is_dir=True), pinned=True)
        # Refresh with new attrs, default pinned argument.
        entry = cache.insert(ROOT_INO, "pin", _attrs(1, is_dir=True))
        assert entry.pinned
        for i in range(10):
            cache.insert(ROOT_INO, "d{}".format(i), _attrs(i + 2))
        assert cache.peek(ROOT_INO, "pin") is not None

    def test_reinsert_explicit_unpin(self):
        """An explicit ``pinned=False`` still clears the pin."""
        cache = DentryCache()
        cache.insert(ROOT_INO, "pin", _attrs(1, is_dir=True), pinned=True)
        entry = cache.insert(ROOT_INO, "pin", _attrs(1, is_dir=True),
                             pinned=False)
        assert not entry.pinned

    def test_cold_insertion_evicted_first(self):
        cache = DentryCache(budget_bytes=3 * DENTRY_CACHE_COST_BYTES)
        cache.insert(ROOT_INO, "hot1", _attrs(1, is_dir=True))
        cache.insert(ROOT_INO, "hot2", _attrs(2, is_dir=True))
        cache.insert(ROOT_INO, "cold", _attrs(3), cold=True)
        cache.insert(ROOT_INO, "hot3", _attrs(4, is_dir=True))
        assert cache.peek(ROOT_INO, "cold") is None
        assert cache.peek(ROOT_INO, "hot1") is not None

    def test_invalidate(self):
        cache = DentryCache()
        cache.insert(ROOT_INO, "a", _attrs(2))
        assert cache.invalidate(ROOT_INO, "a")
        assert not cache.invalidate(ROOT_INO, "a")
        assert cache.invalidations == 1

    def test_peek_does_not_touch_stats(self):
        cache = DentryCache()
        cache.insert(ROOT_INO, "a", _attrs(2))
        cache.peek(ROOT_INO, "a")
        assert cache.hits == 0 and cache.misses == 0

    def test_clear(self):
        cache = DentryCache()
        cache.insert(ROOT_INO, "a", _attrs(2))
        cache.clear()
        assert len(cache) == 0


class TestInodeAttrs:
    def test_fake_detection(self):
        assert make_fake_dir_attrs().is_fake
        assert not _attrs(1).is_fake

    def test_fake_passes_all_permission_checks(self):
        fake = make_fake_dir_attrs()
        assert fake.allows_exec()

    def test_permission_bits(self):
        locked = _attrs(1, mode=0o000)
        assert not locked.allows_exec()
        assert _attrs(1, mode=0o100).allows_exec()


class _ScriptedOps:
    """Walker ops backed by an in-memory namespace dict."""

    def __init__(self, namespace):
        self.namespace = namespace
        self.lookups = []
        self.revalidations = 0

    def lookup(self, parent, name, flags, path, ctx=None):
        self.lookups.append((parent.ino, name, flags))
        attrs = self.namespace.get((parent.ino, name))
        if attrs is None:
            raise RpcFailure(RpcError.ENOENT, path)
        return attrs
        yield  # pragma: no cover

    def revalidate(self, entry, flags, path, ctx=None):
        self.revalidations += 1
        return entry.attrs
        yield  # pragma: no cover


@pytest.fixture
def walker_setup():
    env = Environment()
    namespace = {
        (ROOT_INO, "a"): _attrs(10, is_dir=True),
        (10, "b"): _attrs(11, is_dir=True),
        (11, "f.txt"): _attrs(12),
    }
    ops = _ScriptedOps(namespace)
    walker = PathWalker(env, CostModel(), DentryCache(), ops)
    return env, walker, ops


def _walk(env, walker, path, **kwargs):
    proc = env.process(walker.walk(path, **kwargs))
    return env.run(until=proc)


class TestPathWalker:
    def test_full_walk(self, walker_setup):
        env, walker, ops = walker_setup
        result = _walk(env, walker, "/a/b/f.txt")
        assert result.attrs.ino == 12
        assert result.name == "f.txt"
        assert result.components_walked == 3

    def test_lookup_parent_flag_set_for_intermediates(self, walker_setup):
        env, walker, ops = walker_setup
        _walk(env, walker, "/a/b/f.txt")
        assert ops.lookups == [
            (ROOT_INO, "a", LOOKUP_PARENT),
            (10, "b", LOOKUP_PARENT),
            (11, "f.txt", 0),
        ]

    def test_cache_hit_uses_revalidate_not_lookup(self, walker_setup):
        env, walker, ops = walker_setup
        _walk(env, walker, "/a/b/f.txt")
        ops.lookups.clear()
        _walk(env, walker, "/a/b/f.txt")
        assert ops.lookups == []
        assert ops.revalidations == 3

    def test_enoent_propagates(self, walker_setup):
        env, walker, ops = walker_setup
        with pytest.raises(RpcFailure) as info:
            _walk(env, walker, "/a/missing/f.txt")
        assert info.value.code == RpcError.ENOENT

    def test_missing_final_allowed_for_create(self, walker_setup):
        env, walker, ops = walker_setup
        result = _walk(env, walker, "/a/b/new.txt", last_must_exist=False)
        assert result.attrs is None
        assert result.name == "new.txt"
        assert result.parent_attrs.ino == 11

    def test_missing_intermediate_still_fails_for_create(self, walker_setup):
        env, walker, ops = walker_setup
        with pytest.raises(RpcFailure):
            _walk(env, walker, "/a/nope/new.txt", last_must_exist=False)

    def test_file_as_intermediate_is_enotdir(self, walker_setup):
        env, walker, ops = walker_setup
        with pytest.raises(RpcFailure) as info:
            _walk(env, walker, "/a/b/f.txt/deeper")
        assert info.value.code == RpcError.ENOTDIR

    def test_no_exec_permission_is_eacces(self, walker_setup):
        env, walker, ops = walker_setup
        ops.namespace[(ROOT_INO, "a")] = _attrs(10, is_dir=True, mode=0o600)
        with pytest.raises(RpcFailure) as info:
            _walk(env, walker, "/a/b/f.txt")
        assert info.value.code == RpcError.EACCES

    def test_walk_root(self, walker_setup):
        env, walker, ops = walker_setup
        result = _walk(env, walker, "/")
        assert result.attrs.ino == ROOT_INO
        assert result.components_walked == 0
