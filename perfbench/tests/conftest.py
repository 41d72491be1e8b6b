"""Make the benchmark's modules importable as top-level modules, as
``python3 perfbench/run.py`` does, plus the program under ``src/``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
