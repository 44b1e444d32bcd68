"""Smoke tests of the experiment scripts, run as their users run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_fit_inverse_intensity_writes_design(tmp_path):
    out = tmp_path / "d.json"
    proc = run_script("fit_inverse_intensity.py",
                      "--iterations", "200", "--seeds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    design = json.loads(out.read_text())
    assert design["schedule"] == {"iterations": 200, "seed": 0}
    assert len(design["ansatz"]["v_coeffs"]) == len(design["ansatz"]["v_degrees"])
    assert len(design["ansatz"]["b_coeffs"]) == len(design["ansatz"]["b_degrees"])
    result = design["result"]
    assert len(result["f_achieved"]) == len(result["theta_achieved"]) == 6
    assert result["best_cost"] <= result["initial_cost"]


def test_carnot_power_scan_rows_reach_carnot(tmp_path):
    csv = tmp_path / "scan.csv"
    proc = run_script("carnot_power_scan.py", "--csv", str(csv))
    assert proc.returncode == 0, proc.stderr
    printed = [line.split("|")[1].split() for line in proc.stdout.splitlines()[1:] if "|" in line]
    assert len(printed) == 16
    assert all(eta == eta_c for eta, eta_c in printed)
    header, *rows = csv.read_text().splitlines()
    column = header.split(",").index
    for row in (list(map(float, r.split(","))) for r in rows):
        assert abs(row[column("eta")] - row[column("eta_carnot")]) <= 1e-9


def test_detuning_convergence_prints_both_sectors():
    proc = run_script("detuning_convergence.py", "--ratios", "20,40,80")
    assert proc.returncode == 0, proc.stderr
    slopes = [line.split() for line in proc.stdout.splitlines() if "slopes:" in line]
    assert len(slopes) == 2
    # the shift-balanced sector converges second order in 1/Delta
    assert -2.5 <= float(slopes[1][2].rstrip(",")) <= -1.5
