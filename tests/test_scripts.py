"""Each script in scripts/ runs to completion and prints its summary."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "em_mixture.py": ([], ["iter      engine NLL     hand EM NLL", "final mixture weights:"]),
    "gan_toy.py": (["--iters", "300"],
                   ["target over 10 points; 300 iterations per recipe",
                    " vanilla_gan: TV = ", "        wgan: TV = ",
                    "     ppo_gan: TV = "]),
    "run_interpolation.py": ([], ["iter   stage   total objective",
                                  "final distribution:"]),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name):
    args, expected = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for line in expected:
        assert line in proc.stdout
