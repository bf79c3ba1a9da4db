"""Exception hierarchy shared across the package, the one rule that picks
which error a table with several bad rows raises, and open_output, which
every writer of the package opens its output with.  open_output sits here,
not in csvfile, because every writer already imports this module: importing
imaging or config does not load csvfile.

Each class carries the CLI's exit code and the label its message prints
under.
"""

import os
import stat
from pathlib import Path
from typing import IO, Callable, NoReturn, Sequence

import numpy as np


class JJShadowError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    label = "error"


class NumericalError(JJShadowError):
    """Base class for the numerical failures, which exit 3."""

    exit_code = 3
    label = "numerical failure"


class GeometryError(NumericalError):
    """Evaporator geometry violates its invariants (e.g. D <= 0)."""


class ShadowedError(NumericalError):
    """An electrode is fully shadowed (computed width <= 0) at this point."""


class DataError(JJShadowError):
    """Malformed or inconsistent input data (CSV, layout, truth flags)."""

    label = "data error"


class ConfigError(JJShadowError):
    """Bad run configuration: unknown key, unparsable value, bad range."""

    label = "data error"


class FitError(NumericalError):
    """A regression or radial fit is underdetermined or failed."""


class ExtractionError(NumericalError):
    """Image width/area extraction found no usable edges."""


class TargetError(NumericalError):
    """Pre-compensation target area is unattainable at this position."""


def data_error(message: str) -> NoReturn:
    """Raise DataError(message), from an expression."""
    raise DataError(message)


# A check of rows: the mask of the bad rows, and a call raising row i's error.
Check = tuple[np.ndarray, Callable[[int], object]]


def raise_first_bad(checks: Sequence[Check],
                    where: Callable[[int], str] | None = None) -> None:
    """Raise the error of the lowest row any check flags, made by the first
    check in order that flags it, as a row-by-row loop would; with where, as
    a DataError that reads where(row), then the error."""
    firsts = [int(bad.argmax()) for bad, _ in checks if bad.any()]
    if firsts:
        i = min(firsts)
        try:
            next(raise_row for bad, raise_row in checks if bad[i])(i)
        except (ValueError, JJShadowError) as exc:
            if where is None:
                raise
            raise DataError(f"{where(i)}{exc}") from exc



# Extended attributes can only be seen where os.listxattr exists (Linux);
# elsewhere no output is replaced.
_REPLACEABLE = hasattr(os, "listxattr")


def open_output(path: str | Path, mode: str = "w", newline: str | None = None) -> IO:
    """Open path to write a whole output, as open(path, mode, newline=newline)
    does ("w" or "wb"), but replace rather than truncate an existing file
    that a new file can stand in for.

    That is a regular file with one link, which this process owns and may
    write, whose group is the process's effective group, and which has no
    extended attributes (so no ACL).  It is unlinked and created again, and the new file is
    given the old group and the old mode bits exactly, whatever the umask.
    Every other path (missing, a symlink, hard-linked, a FIFO or device,
    another user's or group's file, a read-only file, a file with an ACL or
    other xattrs, or one in a directory that refuses the unlink) opens as
    open() opens it, and is never unlinked.  A create that fails after the
    unlink (no free descriptor or inode) loses the old file, where a
    truncating open() that failed would have kept it.

    Why: on ext4 with its default auto_da_alloc, truncating a file makes
    close() allocate and submit the new blocks in this process, where a
    replaced file waits for the kernel's writeback.  On a 2-core ext4 host,
    rewriting a 100 KB file took 0.10-0.16 ms truncating and 0.04-0.08 ms
    replaced, back to back, and 26 such files 4.6-6.1 ms against 2.3-3.4
    ms with 0.05-2 s between rewrites.  A file the kernel has already
    written back (40 s later) costs the same either way, and a missing
    path one failed lstat more.
    """
    try:
        st = os.lstat(path)
        replace = (_REPLACEABLE and stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                   and st.st_mode & stat.S_IWUSR
                   and st.st_uid == os.geteuid() and st.st_gid == os.getegid()
                   and not os.listxattr(path, follow_symlinks=False))
        if replace:
            os.unlink(path)
    except OSError:
        replace = False
    if not replace:
        return open(path, mode, newline=newline)

    def opener(name, flags):
        fd = os.open(name, flags | os.O_EXCL, 0o600)
        try:
            # A setgid directory gives a new file its own group; fchown
            # also clears set-id bits, so the mode comes after it.
            os.fchown(fd, -1, st.st_gid)
            os.fchmod(fd, stat.S_IMODE(st.st_mode))
        except OSError:
            os.close(fd)
            raise
        return fd

    return open(path, mode, newline=newline, opener=opener)

