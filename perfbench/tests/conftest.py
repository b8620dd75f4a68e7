import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
