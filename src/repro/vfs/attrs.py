"""Inode attributes and VFS sizing constants."""

from dataclasses import dataclass

#: Inode number of the file system root directory.
ROOT_INO = 1

#: Reserved identity marking fake attributes returned by the FalconFS VFS
#: shortcut for intermediate path components (§5 of the paper).
FAKE_UID = 0xFA1C
FAKE_GID = 0xFA1C

#: Memory charged per cached directory entry on a client: 608 bytes for the
#: VFS inode plus 192 bytes for the dentry (§2.3 of the paper).
DENTRY_CACHE_COST_BYTES = 800


@dataclass(slots=True)
class InodeAttrs:
    """The attribute block a lookup returns (struct stat essentials).

    Slotted: every cached dentry holds one, so an instance dict would be
    paid once per cached file."""

    ino: int
    is_dir: bool = False
    mode: int = 0o755
    uid: int = 0
    gid: int = 0
    size: int = 0
    nlink: int = 1
    mtime: float = 0.0

    @property
    def is_fake(self):
        """True for the placeholder attributes of the VFS shortcut."""
        return self.uid == FAKE_UID and self.gid == FAKE_GID

    def allows_exec(self):
        """True if the directory can be traversed (any exec bit set)."""
        return bool(self.mode & 0o111)


def make_fake_dir_attrs(ino=0):
    """Fake intermediate-directory attributes: mode 0777, reserved ids."""
    return InodeAttrs(
        ino=ino, is_dir=True, mode=0o777, uid=FAKE_UID, gid=FAKE_GID
    )
