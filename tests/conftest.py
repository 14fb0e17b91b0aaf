"""Make ``corules`` importable from this checkout without an install.

The checkout's ``src`` is appended to ``sys.path``, so an installed copy or
one named on ``PYTHONPATH`` comes first and is the one under test:
``PYTHONPATH=/path/to/other/src python -m pytest`` tests that copy.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
