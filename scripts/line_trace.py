#!/usr/bin/env python3
"""Lines of `src/orbicurve/` that a pytest selection never runs.

    python3 scripts/line_trace.py [PYTEST_ARGS ...]

Runs pytest in this process on PYTEST_ARGS (default: `tests`), for example

    python3 scripts/line_trace.py tests -k "not criterion_05"

under a line tracer, and prints, module by module, each executable line of
the package that never ran.  The executable lines are those the compiled
code objects map bytecode to (`co_lines()`).  The tracer is installed with
`sys.settrace` and `threading.settrace` before the package is imported, so
import-time lines count, and it follows only frames whose code lives in
`src/orbicurve/`.  It uses the standard library alone and writes nothing:
pytest runs with `-p no:cacheprovider`.

A line reached only in another process shows as never run: the tests that
start `python -O` or the command line in a subprocess, and the workers of a
process pool, run untraced.  Tracing costs several times the run's time.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = str(SRC / "orbicurve") + "/"


def line_tracer(package: str):
    """(tracer, lines run): a global trace function that follows only frames whose
    code lives under `package`, and the lines it saw run there, by file."""
    ran: dict[str, set[int]] = {}
    followed: dict = {}  # code object -> its file's set in `ran`, or None outside the package

    def trace(frame, event, arg):
        code = frame.f_code
        lines = followed.get(code, False)
        if lines is False:
            name = code.co_filename
            lines = followed[code] = ran.setdefault(name, set()) if name.startswith(package) else None
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call's first line, which no "line" event reports

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace, ran


def executable_lines(path: Path) -> set[int]:
    """Every line some code object of the module maps bytecode to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0 is no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    if "orbicurve" in sys.modules:
        raise SystemExit("orbicurve is already imported: its import-time lines would not count")
    sys.path.insert(0, str(SRC))
    import pytest  # imports no part of the package

    trace, ran = line_tracer(PACKAGE)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([*(argv or ["tests"]), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\nLines of src/orbicurve/ that never ran in this process (a line reached only in a")
    print("subprocess, such as the `python -O` tests and the pool workers, shows as never run):")
    total = 0
    for path in sorted(Path(PACKAGE).glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"  {path.name}: {', '.join(map(str, missed))}")
    print(f"{total} lines never ran; pytest exit status {int(status)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
