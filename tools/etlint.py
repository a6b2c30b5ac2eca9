#!/usr/bin/env python
"""Standalone entry point for the etlint static-analysis subsystem.

Equivalent to ``python -m repro.analysis``; exists so the linter can run
without configuring ``PYTHONPATH`` first::

    python tools/etlint.py src --format=text

See ``--list-rules`` for the rule catalogue and DESIGN.md §9 for the
invariant each rule encodes. Inline ``# etlint: disable=<RULE> <reason>``
comments are the only suppression; ``--strict-suppressions`` fails on
stale ones.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.analysis.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
