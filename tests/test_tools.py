"""Each measurement script under ``tools/`` runs on its smallest input.

The scripts read private names of the package (``lattice._arrays_win``,
``lattice._ideal_floor``, ``part._arrays`` and others), so a rename fails
here rather than at the next measurement.  The Monte Carlo demo runs to
its end as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linext import cli
from linext.families import young_diagram

ROOT = Path(__file__).resolve().parents[1]


def _run(path: Path, argv: list[str]) -> str:
    """What the script at ``path`` prints, run against this checkout's ``src``."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(path), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _tool(argv: list[str]) -> dict:
    """The JSON a ``tools/`` script prints."""
    return json.loads(_run(ROOT / "tools" / argv[0], argv[1:]))


#: script -> (its arguments, a key its JSON holds)
RUNS = {
    "sweep_times.py": (["young33", "--reps", "1", "--json"], "young33"),
    "kernel_regime.py": (["--trials", "10", "--reps", "1", "--nmax", "20"], "rule"),
    "query_mix_split.py": (["--rounds", "1", "--json"], "sort_later"),
    "verify_split.py": (["--repeats", "1", "--json"], "onethird"),
}


@pytest.mark.parametrize("script", RUNS)
def test_tool_prints_json(script):
    argv, key = RUNS[script]
    assert key in _tool([script, *argv])


def test_analyze_phases_prints_json(tmp_path):
    path = tmp_path / "young8x8.json"
    path.write_text(json.dumps(young_diagram((8,) * 8).poset.to_dict()))
    phases = _tool(["analyze_phases.py", str(path), "--reps", "1", "--json"])[str(path)]
    assert phases["total"] > 0 and "profile" in phases
    # the balance op splits into the lattice's sweep and the report built on it
    assert phases["sweep"] > 0 and "report" in phases and "pairs" not in phases


def test_mc_steps_reads_both_phases_of_both_posets():
    steps = _tool(["mc_steps.py", "--reps", "1"])
    assert steps["mc_large"]["n"] == 400 and steps["two_equal_chains20"]["n"] == 40
    for name in ("mc_large", "two_equal_chains20"):
        assert steps[name]["burn_in"] > 0 and steps[name]["watched"] > 0
    assert steps["mc_step_us"] > 0


def test_monte_carlo_demo_runs():
    out = _run(ROOT / "demos" / "monte_carlo_checkup.py", [])
    assert out.startswith("exact P(")
