"""Synthetic directory structures with the Table 3 workload shapes.

The paper measures inode distribution for nine directory structures: a
production labeling dataset, six popular open-source image datasets, the
Linux 6.8 source tree and the FSL homes traces.  The real datasets are not
redistributable here, so each generator reproduces the property that
matters for hybrid indexing: the *filename frequency distribution* and the
directory shape (large DL directories with mostly-unique names; the Linux
tree's hot ``Makefile``/``Kconfig`` names; FSL homes' Zipf-like name
reuse).  File counts default to the paper's (Table 3 column "inode #"),
scalable via ``scale`` for quick runs.
"""

import math

from repro.vfs.pathwalk import join_path
from repro.workloads.trees import TreeSpec


def _scaled(count, scale):
    return max(1, int(round(count * scale)))


def labeling_task(scale=1.0):
    """Production labeling dataset: ~33 k objects grouped by timestamp /
    vehicle / camera, names globally unique."""
    tree = TreeSpec("labeling")
    root = tree.add_dir("/labeling")
    total = _scaled(33000, scale)
    vehicles, cameras = 8, 5
    per_dir = max(1, total // (vehicles * cameras))
    serial = 0
    for vehicle in range(vehicles):
        vdir = tree.add_dir(join_path(root, "vehicle{:02d}".format(vehicle)))
        for camera in range(cameras):
            cdir = tree.add_dir(join_path(vdir, "cam{}".format(camera)))
            for i in range(per_dir):
                name = "v{:02d}c{}_{:08d}.jpg".format(vehicle, camera, serial)
                tree.add_file(join_path(cdir, name), 256 * 1024)
                serial += 1
    return tree


def imagenet(scale=1.0):
    """ImageNet: ~1000 synset directories, unique names per file."""
    tree = TreeSpec("imagenet")
    root = tree.add_dir("/imagenet")
    train = tree.add_dir(join_path(root, "train"))
    total = _scaled(2027728, scale)
    synsets = max(1, min(1000, total // 100))
    per_dir = max(1, total // synsets)
    for synset in range(synsets):
        sdir = tree.add_dir(join_path(train, "n{:08d}".format(synset)))
        for i in range(per_dir):
            name = "n{:08d}_{}.JPEG".format(synset, i)
            tree.add_file(join_path(sdir, name), 112 * 1024)
    return tree


def kitti(scale=1.0):
    """KITTI: the same frame numbers repeat across modality directories."""
    tree = TreeSpec("kitti")
    root = tree.add_dir("/kitti")
    frames = _scaled(15003 // 6, scale)
    for split in ("training", "testing"):
        sdir = tree.add_dir(join_path(root, split))
        for modality, ext in (("image_2", "png"), ("velodyne", "bin"),
                              ("calib", "txt")):
            mdir = tree.add_dir(join_path(sdir, modality))
            for frame in range(frames):
                name = "{:06d}.{}".format(frame, ext)
                tree.add_file(join_path(mdir, name), 128 * 1024)
    return tree


def cityscapes(scale=1.0):
    """Cityscapes: city directories, globally unique frame names."""
    tree = TreeSpec("cityscapes")
    root = tree.add_dir("/cityscapes")
    img = tree.add_dir(join_path(root, "leftImg8bit"))
    total = _scaled(20022, scale)
    cities = 20
    per_city = max(1, total // cities)
    for city in range(cities):
        cdir = tree.add_dir(join_path(img, "city{:02d}".format(city)))
        for i in range(per_city):
            name = "city{:02d}_{:06d}_leftImg8bit.png".format(city, i)
            tree.add_file(join_path(cdir, name), 200 * 1024)
    return tree


def celeba(scale=1.0):
    """CelebA: one huge directory of sequentially numbered images."""
    tree = TreeSpec("celeba")
    root = tree.add_dir("/celeba")
    images = tree.add_dir(join_path(root, "img_align_celeba"))
    for i in range(_scaled(202599, scale)):
        tree.add_file(join_path(images, "{:06d}.jpg".format(i + 1)), 96 * 1024)
    return tree


def svhn(scale=1.0):
    """SVHN: three split directories reusing the same digit file names."""
    tree = TreeSpec("svhn")
    root = tree.add_dir("/svhn")
    per_split = _scaled(33402 // 3, scale)
    for split in ("train", "test", "extra"):
        sdir = tree.add_dir(join_path(root, split))
        for i in range(per_split):
            tree.add_file(join_path(sdir, "{}.png".format(i + 1)), 32 * 1024)
    return tree


def cub200(scale=1.0):
    """CUB-200-2011: 200 species directories, unique names."""
    tree = TreeSpec("cub200")
    root = tree.add_dir("/cub200")
    images = tree.add_dir(join_path(root, "images"))
    total = _scaled(12003, scale)
    species = 200
    per_dir = max(1, total // species)
    for s in range(species):
        sdir = tree.add_dir(
            join_path(images, "{:03d}.species".format(s + 1))
        )
        for i in range(per_dir):
            name = "Species_{:03d}_{:04d}.jpg".format(s + 1, i)
            tree.add_file(join_path(sdir, name), 160 * 1024)
    return tree


def linux_tree(scale=1.0):
    """The Linux 6.8 source tree shape: hot Makefile/Kconfig names.

    The paper reports 88,936 files with ``Makefile`` (2,945) and
    ``Kconfig`` (1,690) as the two hot names that need path-walk
    redirection; everything else is effectively unique.
    """
    tree = TreeSpec("linux")
    root = tree.add_dir("/linux-6.8")
    num_dirs = _scaled(2945, scale)
    kconfig_dirs = _scaled(1690, scale)
    total = _scaled(88936, scale)
    source_files = max(0, total - num_dirs - kconfig_dirs)
    per_dir = max(1, source_files // num_dirs)
    serial = 0
    for d in range(num_dirs):
        ddir = tree.add_dir(join_path(root, "subsys{:05d}".format(d)))
        tree.add_file(join_path(ddir, "Makefile"), 2 * 1024)
        if d < kconfig_dirs:
            tree.add_file(join_path(ddir, "Kconfig"), 4 * 1024)
        for _ in range(per_dir):
            tree.add_file(
                join_path(ddir, "src{:07d}.c".format(serial)), 16 * 1024
            )
            serial += 1
    return tree


def fsl_homes(scale=1.0):
    """FSL homes traces: Zipf-like filename reuse across home directories.

    The paper reports 655,177 files whose most frequent name occurs 8,112
    times (1.24 %) and needs one path-walk redirection entry.
    """
    tree = TreeSpec("fsl-homes")
    root = tree.add_dir("/homes")
    total = _scaled(655177, scale)
    hot_count = _scaled(8112, scale)
    # A small vocabulary of reused names with Zipf-ish frequencies.
    reused = []
    rank = 1
    remaining_hot = int(total * 0.25)
    while remaining_hot > 0 and rank <= 64:
        occurrences = max(1, int(hot_count / rank))
        reused.append((".bash_history" if rank == 1
                       else "common{:03d}.cfg".format(rank), occurrences))
        remaining_hot -= occurrences
        rank += 1
    num_homes = max(1, _scaled(400, math.sqrt(scale)))
    homes = [
        tree.add_dir(join_path(root, "user{:04d}".format(u)))
        for u in range(num_homes)
    ]
    placed = 0
    for name, occurrences in reused:
        for i in range(occurrences):
            home = homes[i % num_homes]
            sub = tree.add_dir(join_path(home, "d{:03d}".format(i % 37)))
            tree.add_file(join_path(sub, name), 8 * 1024)
            placed += 1
    serial = 0
    while placed < total:
        home = homes[serial % num_homes]
        tree.add_file(
            join_path(home, "file{:08d}.dat".format(serial)), 24 * 1024
        )
        serial += 1
        placed += 1
    return tree


#: Table 3's workload column, in paper order.
TABLE3_WORKLOADS = (
    ("Labeling task", labeling_task),
    ("ImageNet", imagenet),
    ("KITTI", kitti),
    ("Cityscapes", cityscapes),
    ("CelebA", celeba),
    ("SVHN", svhn),
    ("CUB-200-2011", cub200),
    ("Linux-6.8 code", linux_tree),
    ("FSL homes", fsl_homes),
)
