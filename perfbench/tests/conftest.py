"""Tests of the benchmark's own logic (generator, spans, reference checks).

Run with ``python -m pytest perfbench/tests``; the repository's tier-1 run
collects only ``tests/``.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
