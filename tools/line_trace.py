"""List the lines of src/jjshadow/*.py that the tier-1 tests never run.

Runs the tier-1 suite (tests/) in this process through pytest.main, with
a sys.settrace hook that records each line run in the package's modules,
then prints each executable line that never ran as ``path:line``, and
their count.  A line is executable when the co_lines() of a code object
compiled from the module's source names it.  The hypothesis seed is fixed
at 0, so two runs over the same source count the same lines.

The trace sees this process alone, so a line that only the tests which
start ``python -m jjshadow`` as a subprocess run counts as unrun.  It
takes about three times as long as the suite itself, so it is not a test:

    python tools/line_trace.py

It exits with pytest's exit code.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jjshadow"


def executable_lines(path: Path) -> set[int]:
    """The line numbers co_lines() gives for the code objects of path."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main() -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    by_filename: dict[str, set[int] | None] = {}    # co_filename -> its set in ran

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_filename:
            by_filename[name] = ran.get(str(Path(name).resolve()))
        seen = by_filename[name]
        if seen is None:
            return None                 # no line events outside the package
        seen.add(frame.f_lineno)        # the call event's line, then each line run

        def lines(frame, event, arg):
            seen.add(frame.f_lineno)
            return lines
        return lines

    sys.path[:0] = [str(ROOT / "src")]
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = [(path, line) for name, path in files.items()
             for line in sorted(executable_lines(path) - ran[name])]
    for path, line in unrun:
        print(f"{path.relative_to(ROOT)}:{line}")
    total = sum(len(executable_lines(path)) for path in files.values())
    print(f"{len(unrun)} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
