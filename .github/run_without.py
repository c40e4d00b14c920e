"""Run the pdm_oscillator CLI in an interpreter whose import of one package raises.

Usage: python .github/run_without.py PACKAGE <pdm-oscillator arguments>

Exits with an error before the CLI runs if PACKAGE can still be imported.
"""

import runpy
import sys

blocked = sys.argv.pop(1)


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == blocked or name.startswith(blocked + "."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, Blocker())
try:
    __import__(blocked)
except ImportError:
    pass
else:
    sys.exit(f"the blocker let {blocked} through")
runpy.run_module("pdm_oscillator.cli", run_name="__main__", alter_sys=True)
