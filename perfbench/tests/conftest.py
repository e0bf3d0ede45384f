import sys
from pathlib import Path

# The benchmark's modules live one directory up, beside run.py.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
