import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsymp

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = str(Path(qsymp.__file__).resolve().parents[1])

# sha256 of each demo's stdout: the demos print exact results, so a change of
# implementation must leave these bytes as they are.
PINNED_DEMOS = {
    "01_symplectic_basics.py": "93f8bdf9b1b3ddf6e1732d7a8b90d648b5f45037e886c893fdca65be4f0ab665",
    "02_codes_and_parameters.py": "199b99ad2c5f1c64073cd0c0f934f5ed67a622499e79c23e3094051650dca7de",
    "03_anticodes_and_cleaning.py": "63661eaf182e40018105a39c9f35dc473bc936581099e319212c0cff60bd6a1c",
    "04_invariants_and_bounds.py": "f54ee59055df29b45e258ee50954df73ff5d212ed6b311ed0ce062b7261b88dc",
    "05_enumerators_and_duality.py": "c4a1afed8b9a79f72fd24f515054af0675ac7617c8e9cf71bc5a1a23e30aeb2e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_output_is_pinned(name):
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, env=env, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_DEMOS[name]
