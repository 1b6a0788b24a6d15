"""examples/full_paper_run.py: Table 1 comes from the studies it ran.

Each application's z-machine run is the z-mc bar of its figure, so the
example simulates it once, and a warm-cache rerun simulates nothing.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.apps import smoke_scale
from repro.core import parallel

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "full_paper_run.py"


def load_example():
    spec = importlib.util.spec_from_file_location("full_paper_run", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_paper_run_simulates_each_zmachine_once(tmp_path, monkeypatch, capsys):
    example = load_example()
    monkeypatch.setattr(example, "factories", lambda paper: smoke_scale())
    runs = []
    real_run_machine = parallel.run_machine

    def counting_run_machine(app, system, *args, **kwargs):
        runs.append((app.name, system))
        return real_run_machine(app, system, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_machine", counting_run_machine)
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setattr(
        sys, "argv", ["full_paper_run.py", "--manifest", str(tmp_path / "m.json")]
    )

    example.main()
    cold = capsys.readouterr().out
    zmc = sorted(app for app, system in runs if system == "z-mc")
    assert zmc == ["Cholesky", "IS", "Maxflow", "Nbody"]
    assert len(runs) == len(set(runs)) == 4 * 5
    assert "Table 1" in cold

    runs.clear()
    example.main()
    assert runs == []  # every run served from the cache
    assert capsys.readouterr().out == cold
