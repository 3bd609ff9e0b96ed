"""Dentry/inode cache with LRU reclaim under a memory budget.

Each cached entry is charged :data:`~repro.vfs.attrs.DENTRY_CACHE_COST_BYTES`
(the 800 bytes §2.3 measures for a VFS dentry plus inode).  When the budget
is exceeded the least recently used unpinned entry is reclaimed — which,
under random traversal of a large tree, preferentially keeps near-root
directories and evicts the leaf-level entries that dominate accesses.
That dynamic is the source of the paper's Fig 2/13 request amplification.
"""

from collections import OrderedDict

from repro.vfs.attrs import DENTRY_CACHE_COST_BYTES


class CacheEntry:
    """One cached (parent, name) -> attrs binding."""

    __slots__ = ("parent_ino", "name", "attrs", "pinned")

    def __init__(self, parent_ino, name, attrs, pinned=False):
        self.parent_ino = parent_ino
        self.name = name
        self.attrs = attrs
        self.pinned = pinned

    def __repr__(self):
        return "<CacheEntry ({}, {}) ino={}>".format(
            self.parent_ino, self.name, self.attrs.ino
        )


class DentryCache:
    """LRU dentry cache keyed by ``(parent_ino, name)``.

    ``budget_bytes=None`` means unlimited (the 100 % configuration of the
    paper's memory-budget sweeps).
    """

    def __init__(self, budget_bytes=None, entry_cost=DENTRY_CACHE_COST_BYTES):
        self.budget_bytes = budget_bytes
        self.entry_cost = entry_cost
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    @property
    def bytes_used(self):
        return len(self._entries) * self.entry_cost

    def lookup(self, parent_ino, name):
        """Return the entry for (parent_ino, name), or None on a miss."""
        key = (parent_ino, name)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, parent_ino, name):
        """Like lookup but without touching LRU order or hit stats."""
        return self._entries.get((parent_ino, name))

    def insert(self, parent_ino, name, attrs, pinned=None, cold=False):
        """Insert or replace an entry; reclaims LRU entries if over budget.

        ``pinned=None`` (the default) preserves an existing entry's pin —
        a refresh of a pinned entry must not make it evictable; new
        entries default to unpinned.  Pass an explicit boolean to set the
        pin either way.

        ``cold`` inserts at the LRU end (evicted first) — used for
        accessed-once file entries so they do not displace the directory
        working set (midpoint/cold insertion, as database buffer pools
        do for scans).
        """
        key = (parent_ino, name)
        if pinned is None:
            existing = self._entries.get(key)
            pinned = existing.pinned if existing is not None else False
        entry = CacheEntry(parent_ino, name, attrs, pinned)
        self._entries[key] = entry
        self._entries.move_to_end(key, last=not cold)
        self._reclaim()
        return entry

    def invalidate(self, parent_ino, name):
        """Drop an entry if present; returns True when something was dropped."""
        dropped = self._entries.pop((parent_ino, name), None) is not None
        if dropped:
            self.invalidations += 1
        return dropped

    def clear(self):
        self._entries.clear()

    def entries(self):
        return list(self._entries.values())

    def _reclaim(self):
        if self.budget_bytes is None:
            return
        while self.bytes_used > self.budget_bytes and self._entries:
            evicted = False
            for key, entry in self._entries.items():
                if not entry.pinned:
                    del self._entries[key]
                    self.evictions += 1
                    evicted = True
                    break
            if not evicted:
                return

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
