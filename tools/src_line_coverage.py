"""Line coverage of ``src/corules`` by the tier-1 tests, with no dependency beyond pytest.

Run from the root of the checkout:

    python tools/src_line_coverage.py [pytest arguments]

It runs pytest in this process (by default ``-q -p no:cacheprovider tests``)
under ``sys.settrace`` and ``threading.settrace``, recording each line of
the ``corules`` package that executes. The executable lines of a module are
those its code objects list in ``co_lines()``. It prints, per module, the
lines covered out of the executable ones and the line numbers never
executed, then the total left unexecuted, and exits with pytest's status.

As in ``tests/conftest.py``, the checkout's ``src`` is appended to
``sys.path``, so a copy named on ``PYTHONPATH`` is the one measured.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from ``path`` list in ``co_lines()``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def _ranges(lines: list[int]) -> str:
    """Ascending ``[1, 2, 3, 7]`` as ``1-3 7``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class _NoDeadlines:
    """A pytest plugin that switches hypothesis deadlines off, since tracing slows every call."""

    def pytest_configure(self, config) -> None:
        from hypothesis import settings

        settings.register_profile("line-trace", deadline=None)
        settings.load_profile("line-trace")


def main(args: list[str]) -> int:
    sys.path.append(str(ROOT / "src"))
    package = Path(importlib.util.find_spec("corules").origin).parent  # not executed yet
    hits: dict[str, set[int]] = {str(p): set() for p in sorted(package.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def called(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(called)
    sys.settrace(called)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                             plugins=[_NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed_total = 0
    for path, covered in hits.items():
        wanted = executable_lines(Path(path))
        missed = sorted(wanted - covered)
        missed_total += len(missed)
        print(f"{Path(path).name:16} {len(wanted) - len(missed):5}/{len(wanted):<5} "
              f"unexecuted: {_ranges(missed) or '-'}")
    print(f"lines left unexecuted: {missed_total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
