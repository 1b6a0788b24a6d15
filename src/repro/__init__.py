"""repro — reproduction of *The Quest for a Zero Overhead Shared Memory
Parallel Machine* (Shah, Singla, Ramachandran; ICPP 1995).

The package provides:

* an execution-driven shared-memory simulator (``repro.sim``,
  ``repro.runtime``) in the spirit of SPASM;
* the **z-machine** ideal-memory model plus four release-consistent
  memory systems — RCinv, RCupd, RCcomp, RCadapt — and an SC baseline
  (``repro.mem``);
* the paper's four applications — sparse Cholesky, Barnes-Hut, NAS
  Integer Sort, push-relabel Maxflow — implemented for real and
  verified against independent references (``repro.apps``);
* the overhead-decomposition study harness that regenerates the paper's
  figures and Table 1 (``repro.core``, ``repro.analysis``).

Quickstart::

    from repro import MachineConfig, run_study
    from repro.apps import IntegerSort

    study = run_study(lambda: IntegerSort(n_keys=1024, nbuckets=64),
                      MachineConfig(nprocs=16))
    for s in study.systems:
        print(s.system, f"{s.overhead_pct:.1f}% overhead")
"""

from .config import DEFAULT_CONFIG, MachineConfig
from .core import (
    JobSpec,
    ResultCache,
    StudyResult,
    SystemResult,
    figure1_scenario,
    run_jobs,
    run_study,
    table1,
    table1_rows,
)
from .runtime import Machine

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "JobSpec",
    "Machine",
    "MachineConfig",
    "ResultCache",
    "StudyResult",
    "SystemResult",
    "figure1_scenario",
    "run_jobs",
    "run_study",
    "table1",
    "table1_rows",
    "__version__",
]
