"""Run the tier-1 tests under a line tracer and list every refusal in
`src/schemewalk` that no test reaches.

    python3 tools/unreached_raises.py [pytest arguments]    # from the repository root

A refusal is a `raise` statement or a call of `errors.refuse`; it counts
as reached when any line it spans runs.  Each unreached one is printed as
"path:line: <exception>", the exception being the raised name, or the
`error` that a `refuse` call passes (CertificationError by default).  The
exit status is 1 when any refusal is unreached, whatever it raises, or
when the tests fail, else 0.  The tracer is `sys.settrace` (and
`threading.settrace`), so only the standard library is needed; the run
takes about twice as long as a plain one.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schemewalk"


def refusals(source: str) -> list[tuple[int, int, str]]:
    """(first line, last line, exception name) of every refusal in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, node.end_lineno, _name(exc)))
        elif isinstance(node, ast.Call) and _name(node.func) == "refuse":
            error = next((k.value for k in node.keywords if k.arg == "error"),
                         node.args[4] if len(node.args) > 4 else None)
            found.append((node.lineno, node.end_lineno,
                          "CertificationError" if error is None else _name(error)))
    return sorted(found)


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ast.unparse(node)


def unreached(sources: dict[str, str], executed: set[tuple[str, int]]) -> list[str]:
    """"path:line: exception" for each refusal of `sources` (path -> text)
    none of whose lines is in `executed` (path, line)."""
    return [f"{path}:{first}: {exc}"
            for path, source in sources.items()
            for first, last, exc in refusals(source)
            if not any((path, line) in executed for line in range(first, last + 1))]


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]   # as `python -m pytest` with PYTHONPATH=src
    import pytest

    files = {str(p) for p in PACKAGE.glob("*.py")}
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    left = unreached({path: Path(path).read_text() for path in sorted(files)}, executed)
    for line in left:
        print(line.removeprefix(f"{ROOT}/"))
    print(f"{len(left)} unreached refusals")
    return int(status != 0 or bool(left))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
