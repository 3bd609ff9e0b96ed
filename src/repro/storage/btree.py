"""A B-link tree: B+ tree with right-sibling links and high keys.

This is the index structure PostgreSQL uses for its B-tree access method
(Lehman & Yao).  The MNode stores its dentry and inode tables in these
trees keyed by ``(parent_id, name)`` tuples, so "children of directory d"
is the range scan ``[(d, ''), (d, +inf))``.

Deletion is lazy in the PostgreSQL style: entries are removed from leaves
but pages are never eagerly merged, trading transient sparsity for simple,
always-correct structure.  Splits maintain the right-link and high-key
invariants, which :func:`check_invariants` (used by the property tests)
verifies.
"""

import bisect


class _TreeNode:
    __slots__ = ("leaf", "keys", "children", "values", "right", "high_key")

    def __init__(self, leaf):
        self.leaf = leaf
        self.keys = []
        self.children = [] if not leaf else None
        self.values = [] if leaf else None
        self.right = None
        #: Upper bound (exclusive) of keys in this node; ``None`` means
        #: unbounded (rightmost node at its level).
        self.high_key = None


class BLinkTree:
    """An ordered mapping with range scans.

    ``order`` is the maximum number of keys per node; nodes split at
    ``order + 1``.
    """

    def __init__(self, order=64):
        if order < 3:
            raise ValueError("order must be >= 3")
        self.order = order
        self._root = _TreeNode(leaf=True)
        self._size = 0
        #: Hash shadow of the leaf level: key -> value.  Point reads are
        #: the hot path (every dentry/inode access); the tree structure
        #: is only needed for ordered scans, so ``get`` answers from the
        #: dict and ``insert``/``delete`` keep both in lockstep.
        self._map = {}

    def __len__(self):
        return self._size

    def __contains__(self, key):
        return key in self._map

    # -- search ----------------------------------------------------------

    def _descend(self, key):
        """Return (leaf, path) where path is the list of internal nodes."""
        node = self._root
        path = []
        while not node.leaf:
            # Follow right-links if the key is beyond this node's range.
            while node.high_key is not None and key >= node.high_key:
                node = node.right
            path.append(node)
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        while node.high_key is not None and key >= node.high_key:
            node = node.right
        return node, path

    def get(self, key, default=None):
        """Return the value for ``key``, or ``default`` if absent."""
        return self._map.get(key, default)

    # -- mutation ----------------------------------------------------------

    def insert(self, key, value, overwrite=True):
        """Insert ``key`` -> ``value``.

        Returns True if a new entry was created, False if an existing
        entry was found (and overwritten when ``overwrite``).
        """
        leaf, path = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            if overwrite:
                leaf.values[idx] = value
                self._map[key] = value
            return False
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        self._map[key] = value
        self._size += 1
        self._split_upward(leaf, path)
        return True

    def delete(self, key):
        """Remove ``key``; returns True if it was present."""
        leaf, _ = self._descend(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
            del self._map[key]
            self._size -= 1
            return True
        return False

    def _split_upward(self, node, path):
        while len(node.keys) > self.order:
            mid = len(node.keys) // 2
            sibling = _TreeNode(leaf=node.leaf)
            if node.leaf:
                split_key = node.keys[mid]
                sibling.keys = node.keys[mid:]
                sibling.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
            else:
                # The middle key moves up; it separates node and sibling.
                split_key = node.keys[mid]
                sibling.keys = node.keys[mid + 1:]
                sibling.children = node.children[mid + 1:]
                node.keys = node.keys[:mid]
                node.children = node.children[:mid + 1]
            sibling.right = node.right
            sibling.high_key = node.high_key
            node.right = sibling
            node.high_key = split_key

            if path:
                parent = path.pop()
                # split_key is not in parent yet; insert key and child.
                idx = bisect.bisect_left(parent.keys, split_key)
                parent.keys.insert(idx, split_key)
                parent.children.insert(idx + 1, sibling)
                node = parent
            else:
                root = _TreeNode(leaf=False)
                root.keys = [split_key]
                root.children = [node, sibling]
                self._root = root
                return

    # -- scans -------------------------------------------------------------

    def items(self, lo=None, hi=None):
        """Yield (key, value) pairs with lo <= key < hi, in key order."""
        if lo is None:
            node = self._leftmost_leaf()
            idx = 0
        else:
            node, _ = self._descend(lo)
            idx = bisect.bisect_left(node.keys, lo)
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if hi is not None and key >= hi:
                    return
                yield key, node.values[idx]
                idx += 1
            node = node.right
            idx = 0

    def keys(self, lo=None, hi=None):
        for key, _ in self.items(lo, hi):
            yield key

    def _leftmost_leaf(self):
        node = self._root
        while not node.leaf:
            node = node.children[0]
        return node

    # -- verification ------------------------------------------------------

    def check_invariants(self):
        """Raise AssertionError if any structural invariant is violated.

        Checked: key ordering within nodes, children ranges vs separator
        keys, leaf chain ordering, high-key bounds, and size accounting.
        """
        count = self._check_node(self._root, None, None)
        assert count == self._size, "size mismatch: {} != {}".format(
            count, self._size
        )
        prev = None
        for key in self.keys():
            assert prev is None or prev < key, "leaf chain out of order"
            prev = key
        assert self._map == dict(self.items()), "hash shadow out of sync"

    def _check_node(self, node, lo, hi):
        keys = node.keys
        assert keys == sorted(keys), "node keys unsorted"
        for key in keys:
            assert lo is None or key >= lo, "key below range"
            assert hi is None or key < hi, "key above range"
        if node.high_key is not None:
            for key in keys:
                assert key < node.high_key, "key >= high_key"
        if node.leaf:
            assert len(node.values) == len(keys)
            return len(keys)
        assert len(node.children) == len(keys) + 1
        total = 0
        bounds = [lo] + list(keys) + [hi]
        for i, child in enumerate(node.children):
            total += self._check_node(child, bounds[i], bounds[i + 1])
        return total


_MISSING = object()
