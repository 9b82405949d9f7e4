"""Locate the cfcheck sources of the checkout this benchmark lives in."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cfcheck():
    """Import cfcheck from this checkout's `src/`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import cfcheck
    except ImportError as e:
        raise SystemExit(f"cannot import cfcheck from {SRC}: {e}")
    if Path(cfcheck.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"cfcheck was imported from {cfcheck.__file__}, not from {SRC}")
    return cfcheck
