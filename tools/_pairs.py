"""What the paired tools share: another revision's ``src``, and the summary of paired times.

``rev_src`` extracts the ``src`` of a revision with ``git archive``; ``summary`` reads
pairs of times, one on that revision and one on this checkout. Only the standard library
is used.
"""

from __future__ import annotations

import io
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Iterable, Optional

ROOT = Path(__file__).resolve().parent.parent


def rev_src(rev: str, into: Path) -> Optional[Path]:
    """The ``src`` of ``rev``, extracted under ``into``; None, once git's error is printed,
    if ``git archive`` fails."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return None
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into)
    return into / "src"


def summary(pairs: Iterable[tuple[float, float]]) -> tuple[float, float, float, int]:
    """Of pairs of times (``rev``'s, the checkout's): the median of the pairs' ratios of
    the checkout's time to ``rev``'s, the lower and upper quartiles of those ratios, and
    the number of pairs the checkout won."""
    pairs = list(pairs)
    ratios = [new / old for old, new in pairs]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return statistics.median(ratios), q1, q3, sum(new < old for old, new in pairs)
