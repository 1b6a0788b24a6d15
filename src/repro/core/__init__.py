"""Core: the z-machine benchmarking methodology."""

from .parallel import JobResult, JobSpec, ResultCache, execute_job, run_jobs
from .study import StudyResult, SystemResult, run_study
from .sweep import SweepPoint, SweepResult, sweep
from .table1 import Table1Row, table1, table1_rows
from .timeline import ReadObservation, TimelineResult, figure1_scenario

__all__ = [
    "JobResult",
    "JobSpec",
    "ReadObservation",
    "ResultCache",
    "StudyResult",
    "SweepPoint",
    "SweepResult",
    "SystemResult",
    "Table1Row",
    "TimelineResult",
    "execute_job",
    "figure1_scenario",
    "run_jobs",
    "run_study",
    "sweep",
    "table1",
    "table1_rows",
]
