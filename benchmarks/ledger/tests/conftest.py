"""Self-tests of the ledger harness (``pytest benchmarks/ledger/tests``).

Outside tier-1's ``testpaths`` on purpose: they test the measuring
instrument, not the program.
"""

import pathlib
import sys

LEDGER = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LEDGER))
sys.path.insert(0, str(LEDGER.parents[1] / "src"))
