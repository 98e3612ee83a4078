"""The chain core runs without numpy: importing the package, building,
serializing and verifying chains, and the CLI's chain commands never load
it, while the class engine, enumeration and search load on first use."""

import os
import subprocess
import sys
from pathlib import Path

import bruhatchains

# Run in a fresh interpreter, since the test process has numpy loaded.
SCRIPT = """
import json
import sys

from click.testing import CliRunner

import bruhatchains as bc
from bruhatchains.cli import main

chain = bc.build_chain(61)
loaded = bc.chain_from_json(bc.chain_to_json(chain))
assert loaded == chain
p, q = bc.build_extremes(61)
report = bc.verify_chain(loaded, p, q)
assert report.valid and report.tight and report.endpoints_ok

runner = CliRunner()
built = runner.invoke(main, ["chain", "build", "--n", "9"])
assert built.exit_code == 0, built.output
checked = runner.invoke(main, ["chain", "verify", "--json", "-"],
                        input=built.output)
assert checked.exit_code == 0, checked.output
result = json.loads(checked.output)["result"]
assert result["valid"] and result["tight"] and result["length"] == 125
extremes = runner.invoke(main, ["extremes", "--n", "6"])
assert extremes.exit_code == 0 and len(extremes.output.split()) == 12
delta = runner.invoke(main, ["delta", "--n", "7"])
assert delta.exit_code == 0 and delta.output.strip() == "69"

loaded = [name for name in ("numpy", "bruhatchains.engine",
                            "bruhatchains.enumeration", "bruhatchains.search")
          if name in sys.modules]
assert loaded == [], loaded

# a class-level call: A(4,2)'s class table comes from the class engine
p4, q4 = bc.build_extremes(4)
assert bc.secondary_bruhat_leq(p4, q4)
assert "numpy" in sys.modules and "bruhatchains.engine" in sys.modules

assert bc.build_poset is bc.enumeration.build_poset
assert bc.tight_chain_search is bc.search.tight_chain_search
assert bc.search is sys.modules["bruhatchains.search"]
print("ok")
"""


def test_chain_core_never_loads_numpy():
    src = Path(bruhatchains.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
