"""Smoke tests: the demo scripts run to completion on small inputs."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")


def test_permutation_band_demo(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_script(
        "permutation_band_demo.py",
        ["--n", "4096", "--seeds", "1", "--replicates", "19", "--half-width", "10"],
        monkeypatch,
    )
    assert "ARMA(1,1) t(3): escapes" in capsys.readouterr().out


def test_arma_spectrum_demo(tmp_path, monkeypatch):
    run_script("arma_spectrum_demo.py", ["--n", "4096", "--out-dir", str(tmp_path)], monkeypatch)
    assert (tmp_path / "extremogram.csv").exists() and (tmp_path / "spectrum.csv").exists()
