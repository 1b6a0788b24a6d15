"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.runtime import Machine

ALL_SYSTEMS = ["z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp", "SCinv"]
REAL_SYSTEMS = ["RCinv", "RCupd", "RCadapt", "RCcomp", "SCinv"]
PAPER_SYSTEMS = ["z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp"]


@pytest.fixture
def checked_machine():
    """Attach an :class:`InvariantChecker` to machines under test.

    Yields an ``attach(machine)`` callable; at teardown every attached
    checker runs its final audit and the test fails on any protocol
    invariant violation.  Opt in from protocol/integration tests to get
    directory/cache/buffer auditing for free.
    """
    from repro.analysis.checkers import InvariantChecker

    attached: list[InvariantChecker] = []

    def _attach(machine, **kwargs) -> InvariantChecker:
        checker = InvariantChecker.attach(machine, **kwargs)
        attached.append(checker)
        return checker

    yield _attach
    for checker in attached:
        checker.final_check()
        assert checker.clean, checker.describe()


@pytest.fixture
def cfg4() -> MachineConfig:
    return MachineConfig(nprocs=4)


@pytest.fixture
def cfg8() -> MachineConfig:
    return MachineConfig(nprocs=8)


@pytest.fixture
def cfg16() -> MachineConfig:
    return MachineConfig(nprocs=16)


def make_machine(system: str = "RCinv", nprocs: int = 4, **cfg_kwargs) -> Machine:
    return Machine(MachineConfig(nprocs=nprocs, **cfg_kwargs), system)
