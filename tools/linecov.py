#!/usr/bin/env python3
"""Lines of ``src/lctkit`` that no test runs.

Usage, from the root of a checkout:

    python3 tools/linecov.py [--summary FILE] [pytest arguments]

It runs pytest in this process, with the arguments given, under a line
tracer set with ``sys.settrace`` and ``threading.settrace`` before
anything imports ``lctkit``, so module bodies and the threads of
``run_many`` are traced too.  A module's executable lines are those its
compiled code objects list in ``co_lines``.  Per module of
``src/lctkit``, it prints the executable lines that no test ran, as
line ranges, then the total, and appends the same listing to
``--summary`` as markdown.  It exits with pytest's status: the listing
is reported, not gated.  Tracing makes tier-1 about four times slower:
107 s against 27 s untraced, on a shared 2-vCPU host under Python 3.11.
Without ``HYPOTHESIS_PROFILE=ci``, which CI sets, tests that draw
hypothesis examples may reach a line in one run and not the next.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "lctkit")
sys.path.insert(0, os.path.join(ROOT, "src"))

# Per traced source file, the line numbers run; per code file name seen,
# the local tracer that adds to its file's set, or None.
_ran = {}
_tracers = {}


def _tracer(ran: set):
    add = ran.add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        return _tracers[name]
    except KeyError:
        path = os.path.realpath(name)
        tracer = None
        if path.startswith(SRC + os.sep):
            tracer = _tracer(_ran.setdefault(path, set()))
        _tracers[name] = tracer
        return tracer


def executable_lines(path: str) -> set:
    """The line numbers of every code object compiled from ``path``, but
    for the 0 of a module's first instruction, which no line event
    reports."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """``1-3, 7`` for the sorted line numbers 1, 2, 3 and 7."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def listing() -> list:
    """Per module, a line of the lines no test ran, then the total."""
    out, missed, total = [], 0, 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        lines = executable_lines(path)
        not_run = lines - _ran.get(path, set())
        missed += len(not_run)
        total += len(lines)
        if not_run:
            out.append(f"src/lctkit/{name}: {len(not_run)} of {len(lines)} "
                       f"not run: {_ranges(not_run)}")
    out.append(f"total: {missed} of {total} executable lines not run")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--summary", help="a markdown file to append to")
    args, pytest_args = parser.parse_known_args(argv)

    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    lines = listing()
    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write("Lines of src/lctkit that no test ran:\n\n```\n" +
                    "\n".join(lines) + "\n```\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
