import os
import subprocess
import sys
from pathlib import Path

from sphertrans.suites import _SHARP_P_GRID

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    """Run scripts/<name> as from a plain checkout: no PYTHONPATH, so the
    script must find the library of this checkout itself."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=600, env=env,
    )


def test_sharpness_demo_prints_both_fixture_tables():
    run = _run_script("sharpness_demo.py")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    for label in ("column pair: d=2, n=2", "diagonal pair: d=2, n=2"):
        start = lines.index(label)
        assert lines[start + 1].split() == ["p", "tuple", "p-norm", "hypo-p-norm", "2^(1/p-1/2)"]
        rows = [line.split() for line in lines[start + 2:start + 2 + len(_SHARP_P_GRID)]]
        assert [row[0] for row in rows] == [f"{p:g}" for p in _SHARP_P_GRID]
        assert all(len(row) == 4 for row in rows)
    assert lines[-1].startswith("reference values: sqrt(2) =")


def test_layer_costs_prints_every_layer():
    run = _run_script("layer_costs.py", "--tuples", "2", "--repeats", "1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[1] == "| layer | ms per call | IQR ms | iterations | evaluations |"
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[3:]]
    assert [row[0] for row in rows] == [
        "`spherical_polar`", "transforms (Duggal, Aluthge, Heinz, mean)",
        "`schatten_spherical_norm` (p=3)", "s3 trial numerics, alone",
        "s3 trial numerics, in a block of 2",
        "`hypo_norm`", "`schatten_hypo_norm` (p=3)",
        "`schatten_hypo_norm` (p=2, exact)", "joint radius, route a", "joint radius, route b",
        "`joint_numerical_radius` (both routes)", "`schatten_numerical_radius` (p=3)",
        "`numerical_radius`, n=5"]
    assert all(float(row[1]) > 0.0 for row in rows)
    # each row over the tuples has a spread; the block row is one time
    assert all(float(row[2]) >= 0.0 for i, row in enumerate(rows) if i != 4)
    assert rows[4][2] == "-"
    # the closed-form layers make no estimate
    assert all(row[3:] == ["-", "-"] for row in rows[:5])
    # the exact p = 2 hypo-norm is one evaluation; every ascent iterates
    assert rows[7][3:] == ["0.0", "1.0"]
    assert all(float(row[3]) >= 1.0 for i, row in enumerate(rows[5:], 5) if i != 7)
    assert _run_script("layer_costs.py", "--tuples", "0").returncode == 2
