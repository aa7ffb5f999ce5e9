"""Make ``perfbench`` and the checkout's ``repro`` importable for the
benchmark's own tests (run with ``python -m pytest perfbench/tests -q``)."""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perfbench import ensure_repro_importable  # noqa: E402

ensure_repro_importable()
