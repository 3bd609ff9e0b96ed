"""Host memory per file: the program holds each file's metadata once.

The rule (docs/architecture.md, "Simulator performance"): an audit
reads the tables in place, and a record cached per file has no
instance dict.  Two budgets pin it in traced bytes, the way
``test_retained_memory.py`` pins what outlives a cluster:

* the invariant audit's tracemalloc peak per inode row.  Its only
  per-row structure is one sorted list of references (8 bytes each);
  rebuilding the namespace as dicts and a set first cost about 186
  bytes per row.
* the bytes a vfs client frees when it drops one cached file entry:
  the key, the entry and its :class:`~repro.vfs.attrs.InodeAttrs`.
  About 310 on CPython 3.11.7; 358 while ``InodeAttrs`` carried an
  instance dict.  Object sizes differ between interpreter versions, so
  this budget runs on the version the benchmark runs on.

Every MNode's namespace replica holds a :class:`DentryRecord` per
directory, so that record carries no instance dict either.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core import FalconCluster, FalconConfig
from repro.core.records import DentryRecord
from repro.core.verify import cluster_violations
from repro.vfs.attrs import InodeAttrs, make_fake_dir_attrs
from repro.workloads.trees import flat_burst_tree, private_dirs_tree

AUDIT_BYTES_PER_ROW = 32
CACHED_FILE_ENTRY_BYTES = 320


def test_the_audit_keeps_no_copy_of_the_namespace():
    cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
    cluster.bulk_load(private_dirs_tree(16, 640))
    rows = sum(len(mnode.inodes) for mnode in cluster.mnodes)
    assert rows >= 10_000
    assert cluster_violations(cluster) == []
    gc.collect()
    tracemalloc.start()
    try:
        assert cluster_violations(cluster) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= AUDIT_BYTES_PER_ROW * rows, peak / rows


def test_cached_attrs_carry_no_instance_dict():
    for attrs in (InodeAttrs(ino=2), make_fake_dir_attrs(3),
                  DentryRecord(ino=2)):
        assert not hasattr(attrs, "__dict__")
    with pytest.raises(AttributeError):
        InodeAttrs(ino=2).stale = True


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="object sizes are pinned on CPython 3.11")
def test_a_cached_file_entry_fits_its_budget():
    cluster = FalconCluster(FalconConfig(num_mnodes=4, num_storage=2))
    client = cluster.add_client(mode="vfs")
    tree = flat_burst_tree(4, 500, root="/ds")
    cluster.bulk_load(tree)

    def stat_every_file():
        for path in tree.file_paths():
            yield from client.getattr(path)

    gc.collect()
    tracemalloc.start()
    try:
        cluster.run_process(stat_every_file())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        files = [(entry.parent_ino, entry.name)
                 for entry in client.dcache.entries()
                 if not entry.attrs.is_dir]
        for parent_ino, name in files:
            client.dcache.invalidate(parent_ino, name)
        count = len(files)
        del files
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert count == 2000
    assert freed <= CACHED_FILE_ENTRY_BYTES * count, freed / count
