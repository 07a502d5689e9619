"""Stdlib line-coverage survey: the lines of src/gibbsfields no test reaches.

Usage, from the root of a checkout:

    python3 tools/uncovered.py [pytest arguments]

With no arguments it runs the Tier-1 suite (``tests/``, quietly, with
collection errors tolerated). pytest runs in this interpreter under
``sys.settrace``, and the tracer records the lines executed in files
under ``src/gibbsfields`` only. The survey then prints, as
``path:line: source``, every executable line (from the ``co_lines`` of
every code object compiled from each file) that nothing reached.

It reports whatever the test outcomes are, and exits 0 once it has
printed. Tracing slows the suite severalfold, so tests with a time
budget and Hypothesis tests with a deadline can fail under it; such a
failure does not change which lines ran before it.

Child interpreters that tests start (``subprocess`` runs of ``gfl``) are
not traced. Lines that only they reach are listed as unreached.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gibbsfields"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                str(ROOT / "tests")]


def executable_lines(path: Path) -> set:
    """Every line number that some code object compiled from path runs."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(args: list) -> tuple:
    """(pytest exit code, {file: reached lines}) of one in-process pytest run."""
    prefix = str(PACKAGE) + os.sep
    inside: dict = {}
    reached: dict = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        ours = inside.get(name)
        if ours is None:
            ours = inside[name] = os.path.realpath(name).startswith(prefix)
            if ours:
                reached.setdefault(name, set())
        if not ours:
            return None
        reached[name].add(frame.f_lineno)
        return local

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_file: dict = {}
    for name, lines in reached.items():
        by_file.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    return status, by_file


def main(argv: list) -> int:
    status, reached = traced_run(argv or DEFAULT_ARGS)
    total = missed = 0
    print(f"\npytest exit status under tracing: {int(status)}")
    print("child interpreters started by tests are not traced")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - reached.get(path.resolve(), set()))
        total += len(lines)
        missed += len(unreached)
        source = path.read_text().splitlines()
        for line in unreached:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
