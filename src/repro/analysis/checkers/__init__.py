"""Correctness-analysis subsystem: race detection + protocol invariants.

Two engine observers over one instrumented simulation (see
docs/correctness.md):

* :mod:`~repro.analysis.checkers.races` — :class:`RaceDetector`,
  FastTrack-style vector-clock happens-before data-race detection over
  the access stream;
* :mod:`~repro.analysis.checkers.invariants` —
  :class:`InvariantChecker`, auditing directory/cache/buffer invariants
  after every memory-system operation;
* :mod:`~repro.analysis.checkers.runner` — the apps × systems matrix
  behind ``repro check``, parallelised and cached through
  :mod:`repro.core.parallel`.
"""

from .invariants import InvariantChecker, Violation
from .races import Race, RaceAccess, RaceDetector, RaceReport
from .runner import CheckOutcome, check_matrix, execute_check, format_outcomes

__all__ = [
    "CheckOutcome",
    "InvariantChecker",
    "Race",
    "RaceAccess",
    "RaceDetector",
    "RaceReport",
    "Violation",
    "check_matrix",
    "execute_check",
    "format_outcomes",
]
