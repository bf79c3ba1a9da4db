"""How every writer of the package treats an output path that already
exists: a regular file of the writer's own is replaced by a new file with
the same bytes a fresh write gives, the old mode bits whatever the umask,
and the old group; a symlink, a hard-linked file, a FIFO, another user's
or group's file, a read-only file or a file with extended attributes is
written through and kept; an unwritable file still refuses the write; a
write refused before its first byte leaves the old file as it was; a
replace that cannot give the new file the old group or mode leaves the
path missing and no descriptor open."""

import os
import stat
from pathlib import Path

import numpy as np
import pytest

from jjshadow.analysis import HeatmapGrid
from jjshadow.cli import main, make_parser
from jjshadow.config import write_default
from jjshadow.csvfile import _write_columns
from jjshadow.errors import DataError, open_output
from jjshadow.imaging import GrayImage, write_pgm
from jjshadow.io import write_heatmap_csv

OLD = b"old output\n" * 3


def _run(*argv):
    """Run a command as main does, but let its errors propagate."""
    args = make_parser().parse_args([str(a) for a in argv])
    assert args.func(args) == 0


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    """Two measurement CSVs of planar35x35-al with lognormal disorder,
    at seeds 3 and 7, so their reports differ."""
    out = tmp_path_factory.mktemp("measurements")
    cfg = out / "disorder.cfg"
    cfg.write_text("process.lognormal_sigma = 0.05\n")
    assert main(["layout", "--kind", "planar35x35-al", "--out", str(out / "layout.csv")]) == 0
    for seed in (3, 7):
        assert main(["simulate", "--layout", str(out / "layout.csv"), "--seed", str(seed),
                     "--config", str(cfg), "--out", str(out / f"m{seed}.csv")]) == 0
    return out


def _write_heatmap(path):
    grid = HeatmapGrid(xs=(-1.0, 0.0, 1.0), ys=(1.0, -1.0),
                       values=np.array([[0.9, 1.0, 1.1], [1.05, 0.0, 0.95]]),
                       valid=np.array([[True, True, True], [True, False, True]]))
    write_heatmap_csv(grid, path)


def _write_pgm(path):
    pixels = np.arange(24 * 32, dtype=np.uint8).reshape(24, 32)
    write_pgm(GrayImage(scale_nm_per_px=2.0, pixels=pixels), path)


# Each writer, as a call that writes its output to a path whose file name
# is the writer's id (analyze names its report.txt itself).  Every output
# is a few KB, well inside a pipe's buffer.
WRITERS = {
    "columns.csv": lambda path, m: _write_columns(path, "structure_id,x_mm",
                                                  [["a", "b,c", 'd"'], [0.5, -1.0, 2.25]]),
    "heatmap.csv": lambda path, m: _write_heatmap(path),
    "image.pgm": lambda path, m: _write_pgm(path),
    "fieldmap.csv": lambda path, m: _run("fieldmap", "--quantity", "area", "--step", 10,
                                         "--out", path),
    "report.txt": lambda path, m: _run("analyze", "--measurements", m / "m3.csv",
                                       "--out-dir", path.parent),
    "run.cfg": lambda path, m: write_default(path),
}


@pytest.fixture(params=list(WRITERS))
def writer(request, measurements, tmp_path):
    """(write, path, fresh): the writer, the path it writes in an empty
    directory of its own, and the bytes it writes there."""
    name = request.param

    def write(path):
        WRITERS[name](path, measurements)

    fresh_path = tmp_path / "fresh" / name
    fresh_path.parent.mkdir()
    write(fresh_path)
    path = tmp_path / "out" / name
    path.parent.mkdir()
    return write, path, fresh_path.read_bytes()


@pytest.mark.parametrize("old", ["longer", "shorter"])
def test_rewrite_gives_the_bytes_of_a_fresh_write(writer, old):
    write, path, fresh = writer
    path.write_bytes(fresh + OLD if old == "longer" else fresh[:len(fresh) // 2])
    write(path)
    assert path.read_bytes() == fresh


def test_existing_file_is_replaced_not_truncated(writer):
    # A reader that holds the old file open keeps reading the old bytes.
    write, path, fresh = writer
    path.write_bytes(OLD)
    with open(path, "rb") as held:
        write(path)
        assert held.read() == OLD
    assert path.read_bytes() == fresh


def test_symlinked_output_is_written_through(writer):
    write, path, fresh = writer
    target = path.parent / "target"
    target.write_bytes(OLD)
    path.symlink_to(target.name)
    write(path)
    assert path.is_symlink() and os.readlink(path) == target.name
    assert target.read_bytes() == fresh


def test_hard_linked_output_updates_both_names(writer):
    write, path, fresh = writer
    path.write_bytes(OLD)
    other = path.parent / "other"
    os.link(path, other)
    write(path)
    assert os.path.samefile(path, other)
    assert path.read_bytes() == other.read_bytes() == fresh


def test_fifo_is_written_not_unlinked(writer):
    write, path, fresh = writer
    os.mkfifo(path)
    read_end = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write(path)
        chunks = []
        while chunk := os.read(read_end, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read_end)
    assert stat.S_ISFIFO(os.lstat(path).st_mode)
    assert b"".join(chunks) == fresh


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o664, 0o666])
def test_output_keeps_its_mode_under_any_umask(writer, mode):
    write, path, fresh = writer
    path.write_bytes(OLD)
    path.chmod(mode)
    umask = os.umask(0o022)
    try:
        write(path)
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == fresh


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_read_only_output_still_refuses_the_write(writer):
    write, path, _ = writer
    path.write_bytes(OLD)
    path.chmod(0o444)
    with pytest.raises(PermissionError):
        write(path)
    assert path.read_bytes() == OLD


root_only = pytest.mark.skipif(os.geteuid() != 0, reason="only root may give a file away")
NOBODY = 65534


def _rewrite(path) -> bool:
    """Rewrite path through open_output; whether the old file was written
    in place rather than replaced."""
    with open(path, "rb") as held:
        with open_output(path) as fh:
            fh.write("new\n")
        in_place = os.path.samestat(os.fstat(held.fileno()), os.stat(path))
    assert path.read_bytes() == b"new\n"
    return in_place


@root_only
@pytest.mark.parametrize("uid,gid", [(NOBODY, 0), (0, NOBODY)])
def test_output_of_another_owner_or_group_is_written_in_place(tmp_path, uid, gid):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    os.chown(path, uid, gid)
    assert _rewrite(path)
    assert (path.stat().st_uid, path.stat().st_gid) == (uid, gid)


@root_only
def test_read_only_output_is_written_in_place_by_root(writer):
    write, path, fresh = writer
    path.write_bytes(OLD)
    path.chmod(0o444)
    with open(path, "rb") as held:
        write(path)
        assert os.path.samestat(os.fstat(held.fileno()), os.stat(path))
    assert stat.S_IMODE(path.stat().st_mode) == 0o444
    assert path.read_bytes() == fresh


@root_only
def test_replaced_output_keeps_its_group_in_a_setgid_directory(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    os.chown(shared, -1, NOBODY)
    shared.chmod(0o2775)
    path = shared / "out.txt"
    path.write_bytes(OLD)
    assert path.stat().st_gid == NOBODY  # a new file takes the directory's group
    os.chown(path, -1, os.getegid())
    path.chmod(0o664)
    assert not _rewrite(path)
    assert path.stat().st_gid == os.getegid()
    assert stat.S_IMODE(path.stat().st_mode) == 0o664


def test_output_with_an_extended_attribute_is_written_in_place(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    try:
        os.setxattr(path, "user.origin", b"kept")
    except OSError as exc:
        pytest.skip(f"no user xattrs here: {exc}")
    assert _rewrite(path)
    assert os.getxattr(path, "user.origin") == b"kept"


@pytest.mark.skipif(os.geteuid() == 0, reason="root may unlink in a read-only directory")
def test_output_in_a_directory_that_refuses_the_unlink_is_written_in_place(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    tmp_path.chmod(0o555)
    try:
        assert _rewrite(path)
    finally:
        tmp_path.chmod(0o755)


def test_data_error_before_the_first_byte_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(OLD)
    with pytest.raises(DataError, match="holds a line break"):
        _write_columns(path, "structure_id,x_mm", [["a", "b\nc"], [1.0, 2.0]])
    assert path.read_bytes() == OLD


@pytest.mark.parametrize("call", ["fchown", "fchmod"])
def test_failed_replace_leaves_the_path_missing(tmp_path, monkeypatch, call):
    path = tmp_path / "out.txt"
    path.write_bytes(OLD)
    open_fds = len(os.listdir("/proc/self/fd"))

    def refuse(fd, *args):
        raise PermissionError(f"{call} refused")

    monkeypatch.setattr(os, call, refuse)
    with pytest.raises(PermissionError, match=f"{call} refused"):
        open_output(path)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert not path.exists()


def test_missing_output_is_created_with_the_default_mode(tmp_path):
    path = tmp_path / "new.txt"
    umask = os.umask(0o022)
    try:
        with open_output(path) as fh:
            fh.write("x\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert path.read_bytes() == b"x\n"


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_analyze_twice_into_one_directory_gives_a_fresh_directory(tmp_path, measurements):
    def analyze(m, out):
        _run("analyze", "--measurements", measurements / m, "--out-dir", out)
        return _files(out)

    reused = analyze("m7.csv", tmp_path / "reused")
    fresh = analyze("m3.csv", tmp_path / "fresh")
    assert reused.keys() == fresh.keys()
    assert all(reused[name] != data for name, data in fresh.items())
    assert analyze("m3.csv", tmp_path / "reused") == fresh
