"""Transactional key-value tables over the B-link tree.

A :class:`Table` stores tuples keyed by ``(parent_id, name)`` (the paper's
Table 1 schema for both dentries and inodes).  A :class:`Transaction`
buffers writes against one or more tables and applies them atomically at
commit, after its WAL records are durable.  Isolation between concurrent
transactions is the caller's job (the MNode holds its dentry/inode locks
across the transaction, and FalconFS batches compatible requests into a
single transaction — §4.4).
"""

from repro.storage.btree import BLinkTree

_MISSING = object()
_DELETED = object()


def row_copy(value):
    """What a second holder of stored row ``value`` keeps: a copy of a
    row mutated in place (one with ``copy()``), the row itself when it
    is immutable.  The log holds references, never copies, of inode
    rows."""
    copy = getattr(value, "copy", None)
    return value if copy is None else copy()


def _table(tables, name):
    """``tables[name]``, created (once) when missing."""
    table = tables.get(name)
    if table is None:
        table = tables[name] = Table(name)
    return table


def apply_records(tables, records):
    """Apply a record list ``[(table, key, row | None)]`` — a WAL
    payload — to ``tables`` (``{name: Table}``) in order, storing each
    row as :func:`row_copy`; returns the number of records applied."""
    for name, key, value in records:
        if value is None:
            _table(tables, name).delete(key)
        else:
            _table(tables, name).put(key, row_copy(value))
    return len(records)


def install_image(tables, image):
    """Put every row of a table image ``{table: (keys, rows)}`` into
    ``tables``, as :func:`row_copy`; returns the number of rows."""
    installed = 0
    for name, (keys, rows) in image.items():
        table = _table(tables, name)
        for key, value in zip(keys, rows):
            table.put(key, row_copy(value))
        installed += len(keys)
    return installed


class Table:
    """A named, ordered key-value table."""

    def __init__(self, name, order=64):
        self.name = name
        self.tree = BLinkTree(order=order)
        # Point reads go straight to the tree's hash shadow (mutated in
        # place, never rebound), skipping two call frames on the hot path.
        self.get = self.tree._map.get

    def __len__(self):
        return len(self.tree)

    def __contains__(self, key):
        return key in self.tree

    def keys(self):
        """A set-like view of the keys, in no order (the tree's hash
        shadow, read in place)."""
        return self.tree._map.keys()

    def put(self, key, value):
        """Non-transactional insert/overwrite (used for bulk loading)."""
        self.tree.insert(key, value, overwrite=True)

    def delete(self, key):
        return self.tree.delete(key)

    def scan(self, lo=None, hi=None):
        return self.tree.items(lo, hi)

    def image(self, keep=None):
        """``(keys, rows)``: this table's part of a table image, in key
        order, holding the rows whose key passes ``keep`` (all, without
        one) as :func:`row_copy` — an image is the rows at one instant.
        Two flat lists hold a row in 16 bytes, a list of pairs in 64."""
        keys, rows = [], []
        for key, row in self.tree.items():
            if keep is None or keep(key):
                keys.append(key)
                rows.append(row_copy(row))
        return keys, rows

    def scan_prefix(self, prefix):
        """Iterate entries whose tuple key starts with ``prefix``.

        With keys of the form ``(pid, name)`` and ``prefix = (pid,)`` this
        enumerates a directory's children in name order.
        """
        lo = prefix
        for key, value in self.tree.items(lo=lo):
            if key[: len(prefix)] != prefix:
                return
            yield key, value

    def has_prefix(self, prefix):
        """True if at least one key starts with ``prefix``."""
        for _ in self.scan_prefix(prefix):
            return True
        return False


class Transaction:
    """Buffered writes over tables, made durable and applied at commit.

    ``on_commit`` (optional) is invoked with the record list the WAL
    logged, after the writes are applied — the hook log-shipping
    replication uses to ship that very payload to a standby.

    ``barrier`` (optional) is a generator function run after WAL
    durability but before the writes are applied — the hook a node uses
    to freeze a commit whose fsync wait straddled a crash, so a dead
    machine cannot apply zombie writes.
    """

    __slots__ = ("env", "wal", "costs", "on_commit", "barrier", "ctx",
                 "_writes", "committed")

    def __init__(self, env, wal, costs, on_commit=None, ctx=None,
                 barrier=None):
        self.env = env
        self.wal = wal
        self.costs = costs
        self.on_commit = on_commit
        self.barrier = barrier
        #: Operation (or batch) context the WAL commit is attributed to.
        self.ctx = ctx
        self._writes = {}
        self.committed = False

    def _bucket(self, table):
        return self._writes.setdefault(id(table), (table, {}))[1]

    def get(self, table, key, default=None):
        """Read through the transaction's own writes, then the table."""
        bucket = self._writes.get(id(table))
        if bucket is not None and key in bucket[1]:
            value = bucket[1][key]
            return default if value is _DELETED else value
        return table.get(key, default)

    def put(self, table, key, value):
        self._check_open()
        self._bucket(table)[key] = value

    def delete(self, table, key):
        self._check_open()
        self._bucket(table)[key] = _DELETED

    def staged(self, table):
        """``(key, present)`` for every write staged against ``table``:
        whether the key holds a row once this transaction applies."""
        bucket = self._writes.get(id(table))
        if bucket is None:
            return ()
        return [(key, value is not _DELETED)
                for key, value in bucket[1].items()]

    def commit(self):
        """Append the writes to the WAL now, with no yield; returns the
        generator that waits for their flush, then applies them
        (``yield from txn.commit()``)."""
        self._check_open()
        records = self.export_writes()
        durable = None
        if records:
            nbytes = len(records) * self.costs.wal_record_bytes
            durable = self.wal.commit(nbytes, records=len(records),
                                      ctx=self.ctx, payload=records)
        return self._apply(records, durable)

    def _apply(self, records, durable):
        if durable is not None:
            yield durable
        if self.barrier is not None:
            yield from self.barrier()
        for table, bucket in self._writes.values():
            for key, value in bucket.items():
                if value is _DELETED:
                    table.delete(key)
                else:
                    table.put(key, value)
        self.committed = True
        if self.on_commit is not None:
            self.on_commit(records)

    def export_writes(self):
        """The record list the WAL logs and the shipper ships: ``(table,
        key, value|None)``.

        An immutable row (an inode) is the very object the table stores;
        a row mutated in place (a dentry, a meta dict) is a
        :func:`row_copy`, so the log never aliases a live object that
        can still change.  A node that stores a shipped row copies it
        again (:func:`apply_records`).
        """
        records = []
        for table, bucket in self._writes.values():
            for key, value in bucket.items():
                if value is _DELETED:
                    records.append((table.name, key, None))
                else:
                    records.append((table.name, key, row_copy(value)))
        return records

    def _check_open(self):
        if self.committed:
            raise RuntimeError("transaction is closed")
