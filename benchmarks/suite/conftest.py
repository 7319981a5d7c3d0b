import sys
from pathlib import Path

# The suite measures this checkout's simulator; make ``repro`` importable
# without an installed package or a PYTHONPATH.
SRC = str(Path(__file__).resolve().parents[2] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
