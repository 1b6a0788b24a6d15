"""Property-based tests at the application level.

Each property runs the real parallel algorithm through the simulator on
randomly drawn inputs/configurations and relies on the applications'
built-in verification (references for IS and Barnes-Hut, certificates
for Cholesky and Maxflow); the Cholesky and Maxflow properties also
cross-check the result against dense LAPACK and networkx.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MachineConfig
from repro.apps import BarnesHut, Cholesky, IntegerSort, Maxflow
from repro.apps.base import run_on
from repro.workloads.matrices import random_spd
from tests.oracles import cholesky_factor, flow_value, reference_cholesky, reference_max_flow

SLOW = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SYSTEMS = st.sampled_from(["z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp", "SCinv"])


@SLOW
@given(
    n_keys=st.integers(16, 300),
    nbuckets=st.integers(2, 32),
    nprocs=st.integers(1, 8),
    system=SYSTEMS,
    seed=st.integers(0, 1000),
)
def test_is_ranks_always_correct(n_keys, nbuckets, nprocs, system, seed):
    app = IntegerSort(n_keys=n_keys, nbuckets=nbuckets, seed=seed)
    run_on(app, system, MachineConfig(nprocs=nprocs))  # verifies internally


@SLOW
@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    nprocs=st.integers(1, 6),
    system=SYSTEMS,
)
def test_cholesky_factor_always_correct(rows, cols, nprocs, system):
    app = Cholesky(grid=(rows, cols))
    run_on(app, system, MachineConfig(nprocs=nprocs))
    assert np.allclose(cholesky_factor(app), reference_cholesky(app.a), rtol=1e-8, atol=1e-8)


@SLOW
@given(
    n=st.integers(12, 40),
    density=st.floats(0.05, 0.3),
    seed=st.integers(0, 100),
)
def test_cholesky_random_spd(n, density, seed):
    app = Cholesky(matrix=random_spd(n, density=density, seed=seed))
    run_on(app, "RCinv", MachineConfig(nprocs=4))
    assert np.allclose(cholesky_factor(app), reference_cholesky(app.a), rtol=1e-8, atol=1e-8)


@SLOW
@given(
    n_bodies=st.integers(4, 24),
    steps=st.integers(1, 3),
    boost=st.integers(0, 3),
    system=SYSTEMS,
    seed=st.integers(0, 100),
)
def test_barneshut_matches_reference(n_bodies, steps, boost, system, seed):
    app = BarnesHut(n_bodies=n_bodies, steps=steps, boost_interval=boost, seed=seed)
    run_on(app, system, MachineConfig(nprocs=4))


@SLOW
@given(
    n=st.integers(6, 20),
    extra=st.integers(0, 30),
    nprocs=st.integers(1, 6),
    seed=st.integers(0, 50),
)
def test_maxflow_matches_networkx(n, extra, nprocs, seed):
    app = Maxflow(n=n, extra_edges=extra, seed=seed)
    run_on(app, "RCinv", MachineConfig(nprocs=nprocs))
    assert flow_value(app) == reference_max_flow(app.net)
