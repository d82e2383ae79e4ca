"""Run the tier-1 tests under a line tracer and list every refusal in
`src/schemewalk` that no test reaches.

    python3 tools/unreached_raises.py [pytest arguments]    # from the repository root

A refusal is a `raise` statement or a call of `errors.check`.  A `raise`
counts as reached when any line it spans runs.  A `check` line runs on
every call, refusing or not, so it counts as reached only when an
exception passed through one of its lines: the tracer's `exception`
event, which fires in each package frame an exception leaves.  Each
unreached refusal is printed as "path:line: <exception>", the exception
being the raised name, or the `error` that a `check` call passes
(CertificationError by default).  The exit status is 1 when any refusal
is unreached, whatever it raises, or when the tests fail, else 0.  The
tracer is `sys.settrace` (and `threading.settrace`), so only the standard
library is needed; the run takes about twice as long as a plain one.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schemewalk"


def refusals(source: str) -> list[tuple[int, int, str, bool]]:
    """(first line, last line, exception name, whether it is a `check` call)
    of every refusal in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, node.end_lineno, _name(exc), False))
        elif isinstance(node, ast.Call) and _name(node.func) == "check":
            error = next((k.value for k in node.keywords if k.arg == "error"),
                         node.args[4] if len(node.args) > 4 else None)
            found.append((node.lineno, node.end_lineno,
                          "CertificationError" if error is None else _name(error), True))
    return sorted(found)


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ast.unparse(node)


def unreached(sources: dict[str, str], executed: set[tuple[str, int]],
              raised: set[tuple[str, int]]) -> list[str]:
    """"path:line: exception" for each refusal of `sources` (path -> text)
    none of whose lines is in `executed` (path, line), or, for a `check`
    call, in `raised`, the lines an exception passed through."""
    return [f"{path}:{first}: {exc}"
            for path, source in sources.items()
            for first, last, exc, is_check in refusals(source)
            if not any((path, line) in (raised if is_check else executed)
                       for line in range(first, last + 1))]


def traced(run, files: set[str]):
    """`run()` under the tracer: its result, the (path, line) pairs of
    `files` that ran, and those an exception passed through.  The
    tracers found on entry are restored on exit."""
    executed: set[tuple[str, int]] = set()
    raised: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "exception":
            raised.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, executed, raised


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]   # as `python -m pytest` with PYTHONPATH=src
    import pytest

    files = {str(p) for p in PACKAGE.glob("*.py")}
    status, executed, raised = traced(
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", *argv]), files)
    left = unreached({path: Path(path).read_text() for path in sorted(files)}, executed, raised)
    for line in left:
        print(line.removeprefix(f"{ROOT}/"))
    print(f"{len(left)} unreached refusals")
    return int(status != 0 or bool(left))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
