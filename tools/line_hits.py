"""List the lines of ``src/llgvm`` that the test suite never runs.

Installs a line tracer (``sys.settrace`` and ``threading.settrace``) for
frames whose code lives under this checkout's ``src/llgvm``, before llgvm is
imported, so module and class bodies count too.  Then runs pytest in-process
and prints every executable line that never ran as ``file:line: source``,
followed by their count.  A line is executable when it is in ``co_lines()`` of
a code object compiled from ``src/llgvm/*.py``.  Code that runs in a child
process, such as ``python -m llgvm.cli``, is not seen.  Arguments, if any,
replace pytest's default ones; paths are relative to the checkout's root:

    python3 tools/line_hits.py                      # all of tests/
    python3 tools/line_hits.py -q tests/test_grid.py

Exits with pytest's status.
"""

from __future__ import annotations

import linecache
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "llgvm"


def start_tracing(root: Path) -> tuple[dict[str, set[int]], tuple]:
    """Record the lines run in frames of files under ``root`` until ``stop_tracing``.

    Returns the hits, file name -> line numbers, which fill as code runs, and
    the tracers that were installed before, for ``stop_tracing`` to restore.
    """
    prefix = str(root.resolve()) + os.sep
    hits: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its hits, None when not traced

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            path = os.path.realpath(name)
            lines_of[name] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        lines = lines_of[name]
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    previous = (sys.gettrace(), threading.gettrace())
    sys.settrace(on_call)
    threading.settrace(on_call)
    return hits, previous


def stop_tracing(previous: tuple) -> None:
    sys.settrace(previous[0])
    threading.settrace(previous[1])


def executable_lines(path: Path) -> set[int]:
    """Line numbers in ``co_lines()`` of every code object compiled from ``path``."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def not_hit(root: Path, hits: dict[str, set[int]]) -> list[tuple[Path, int]]:
    """(file, line) of each executable line of ``root/*.py`` that ``hits`` lacks, in order."""
    missed = []
    for path in sorted(root.resolve().glob("*.py")):
        ran = hits.get(str(path), set())
        missed.extend((path, line) for line in sorted(executable_lines(path) - ran))
    return missed


def main(argv=None) -> int:
    hits, previous = start_tracing(SRC)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    stop_tracing(previous)
    missed = not_hit(SRC, hits)
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {linecache.getline(str(path), line).strip()}")
    print(f"{len(missed)} of the executable lines of src/llgvm never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
