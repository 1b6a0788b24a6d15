"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it runs the
study under ``pytest-benchmark`` timing, prints the regenerated rows,
and asserts the qualitative shape the paper reports (see EXPERIMENTS.md
for the paper-vs-measured record).

The figure/table benches route their runs through the parallel
execution layer (``repro.core.parallel``).  Two environment variables
control it:

* ``REPRO_JOBS`` — worker processes per study (default ``1``: serial,
  in-process, exactly the pre-parallel-layer behavior; ``0`` = one per
  CPU);
* ``REPRO_CACHE`` — set to ``1`` to reuse the on-disk result cache
  across bench invocations (default off so timings stay honest).
"""

from __future__ import annotations

import os

import pytest

from repro import MachineConfig, run_study, table1
from repro.apps import paper_scale
from repro.core.parallel import ResultCache

#: The paper's machine: 16 processors, 4x4 mesh, 1.6 cycles/byte.
PAPER_CFG = MachineConfig(nprocs=16)

#: Application factories at the paper's input sizes (Section 5).
PAPER_APPS = paper_scale()

#: Worker processes per study (see module docstring).
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

#: Shared on-disk result cache, or None when REPRO_CACHE is unset.
CACHE = ResultCache.default() if os.environ.get("REPRO_CACHE") == "1" else None


@pytest.fixture
def paper_cfg() -> MachineConfig:
    return PAPER_CFG


def paper_study(factory, config: MachineConfig = PAPER_CFG):
    """Run one figure study through the parallel/caching layer."""
    return run_study(factory, config, jobs=JOBS, cache=CACHE)


def paper_table1(factories, config: MachineConfig = PAPER_CFG):
    """Run Table 1 through the parallel/caching layer; returns its rows."""
    rows, _ = table1(factories, config, jobs=JOBS, cache=CACHE)
    return rows


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Simulation runs are deterministic, so one round is sufficient and
    keeps the full harness fast.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
