"""The four applications: correctness on every memory system.

Every run executes the real algorithm through the simulator and is
verified by the application itself: stable ranks and sequential
Barnes-Hut as references, the max-flow/min-cut certificate and the
Cholesky residual ``A - L Lᵀ`` as certificates.  The tests here also
cross-check Maxflow and Cholesky against networkx and dense LAPACK
(``tests/oracles.py``), and break the certificates on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import MachineConfig
from repro.apps import BarnesHut, Cholesky, IntegerSort, Maxflow
from repro.apps.base import run_on
from repro.apps.intsort import bucket_stable_ranks
from repro.workloads.matrices import random_spd
from tests.oracles import cholesky_factor, flow_value, reference_cholesky, reference_max_flow

PAPER_SYSTEMS = ["z-mc", "RCinv", "RCupd", "RCadapt", "RCcomp"]

CFG = MachineConfig(nprocs=4)


class TestIntegerSort:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(IntegerSort(n_keys=256, nbuckets=16), system, CFG)

    def test_correct_on_sc(self):
        run_on(IntegerSort(n_keys=256, nbuckets=16), "SCinv", CFG)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
    def test_odd_processor_counts(self, nprocs):
        run_on(IntegerSort(n_keys=100, nbuckets=8), "RCinv", MachineConfig(nprocs=nprocs))

    def test_keys_exceeding_buckets(self):
        run_on(IntegerSort(n_keys=200, nbuckets=8, max_key=64), "RCinv", CFG)

    def test_more_procs_than_convenient_split(self):
        run_on(IntegerSort(n_keys=10, nbuckets=4), "RCinv", MachineConfig(nprocs=8))

    def test_bucket_stable_ranks_reference(self):
        keys = np.array([3, 1, 3, 0, 1])
        ranks = bucket_stable_ranks(keys, 4, 4)
        assert ranks.tolist() == [3, 1, 4, 0, 2]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IntegerSort(n_keys=0)
        with pytest.raises(ValueError):
            IntegerSort(n_keys=10, nbuckets=16, max_key=8)

    def test_verification_catches_corruption(self):
        app = IntegerSort(n_keys=64, nbuckets=8)
        run_on(app, "RCinv", CFG)
        app.ranks.poke(0, 99999)
        with pytest.raises(AssertionError):
            app.verify()


class TestCholesky:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(Cholesky(grid=(4, 4)), system, CFG)

    @pytest.mark.parametrize("grid", [(2, 2), (3, 5), (6, 6)])
    def test_grid_shapes(self, grid):
        run_on(Cholesky(grid=grid), "RCinv", CFG)

    def test_random_spd_matrix(self):
        run_on(Cholesky(matrix=random_spd(24, density=0.15, seed=4)), "RCupd", CFG)

    def test_single_processor(self):
        run_on(Cholesky(grid=(4, 4)), "RCinv", MachineConfig(nprocs=1))

    def test_factor_matches_numpy(self):
        app = Cholesky(grid=(5, 5))
        run_on(app, "RCadapt", CFG)
        assert np.allclose(cholesky_factor(app), reference_cholesky(app.a), atol=1e-8)

    def test_verification_catches_corruption(self):
        app = Cholesky(grid=(3, 3))
        run_on(app, "RCinv", CFG)
        app.lvals.poke(0, 1e9)
        with pytest.raises(AssertionError):
            app.verify()

    def test_residual_catches_one_perturbed_entry(self):
        app = Cholesky(grid=(5, 5))
        run_on(app, "RCinv", CFG)
        j = next(j for j, s in enumerate(app.symbolic.col_struct) if len(s) > 1)
        p = app.colptr[j] + 1
        app.lvals.poke(p, app.lvals.peek(p) + 1e-6)
        with pytest.raises(AssertionError, match="residual"):
            app.verify()

    def test_non_positive_diagonal_fails(self):
        # Negating a whole column leaves L Lᵀ, hence the residual, as it
        # was: only the diagonal check can tell this L from the factor.
        app = Cholesky(grid=(5, 5))
        run_on(app, "RCinv", CFG)
        j = app.n - 1
        for p in range(app.colptr[j], app.colptr[j + 1]):
            app.lvals.poke(p, -app.lvals.peek(p))
        with pytest.raises(AssertionError, match="not positive"):
            app.verify()


class TestBarnesHut:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(BarnesHut(n_bodies=16, steps=2), system, CFG)

    def test_rotation_epochs(self):
        # 6 steps with rotation every 2: three different assignments
        run_on(BarnesHut(n_bodies=16, steps=6, boost_interval=2), "RCinv", CFG)

    def test_no_boost(self):
        run_on(BarnesHut(n_bodies=12, steps=3, boost_interval=0), "RCupd", CFG)

    def test_bodies_not_divisible_by_procs(self):
        run_on(BarnesHut(n_bodies=13, steps=2), "RCinv", CFG)

    def test_single_step(self):
        run_on(BarnesHut(n_bodies=8, steps=1), "RCcomp", CFG)

    def test_verification_catches_corruption(self):
        app = BarnesHut(n_bodies=8, steps=1)
        run_on(app, "RCinv", CFG)
        app.px.poke(0, 1e9)
        with pytest.raises(AssertionError):
            app.verify()


class TestMaxflow:
    @pytest.mark.parametrize("system", PAPER_SYSTEMS)
    def test_correct_on_every_system(self, system):
        run_on(Maxflow(n=12, extra_edges=18, seed=1), system, CFG)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed):
        app = Maxflow(n=14, extra_edges=20, seed=seed)
        run_on(app, "RCinv", CFG)
        assert flow_value(app) == reference_max_flow(app.net)

    def test_single_processor(self):
        run_on(Maxflow(n=10, extra_edges=12, seed=2), "RCinv", MachineConfig(nprocs=1))

    def test_flow_conservation_everywhere(self):
        app = Maxflow(n=16, extra_edges=24, seed=5)
        run_on(app, "RCupd", CFG)
        net = app.net
        for v in range(net.n):
            inflow = sum(app.flow.peek(int(e)) for e in net.adj[v])
            if v == net.source:
                assert inflow > 0 or flow_value(app) == 0
            elif v == net.sink:
                assert inflow == -flow_value(app)

    def test_backbone_only_graph(self):
        run_on(Maxflow(n=8, extra_edges=0, seed=3), "RCinv", CFG)

    def test_verification_catches_corruption(self):
        app = Maxflow(n=10, extra_edges=12, seed=1)
        run_on(app, "RCinv", CFG)
        app.excess.poke(app.net.sink, 10**9)
        with pytest.raises(AssertionError):
            app.verify()

    def test_non_maximal_flow_fails_only_the_certificate(self):
        """One unit less along a whole source-sink path still conserves
        flow and respects every capacity, but leaves a residual path."""
        app = Maxflow(n=16, extra_edges=24, seed=5)
        run_on(app, "RCinv", CFG)
        net = app.net
        value = flow_value(app)
        assert value > 0
        via = {net.source: None}
        frontier = [net.source]
        for v in frontier:
            for e in net.adj[v]:
                w = net.head[e]
                if w not in via and app.flow.peek(e) > 0:
                    via[w] = e
                    frontier.append(w)
        v = net.sink
        while via[v] is not None:
            e = via[v]
            app.flow.poke(e, app.flow.peek(e) - 1)
            app.flow.poke(e ^ 1, app.flow.peek(e ^ 1) + 1)
            v = int(net.tail[e])
        app.excess.poke(net.source, app.excess.peek(net.source) + 1)
        app.excess.poke(net.sink, value - 1)
        with pytest.raises(AssertionError, match="residual path from source to sink"):
            app.verify()


def test_verified_runs_import_neither_networkx_nor_scipy():
    src = str(Path(repro.__file__).parents[1])
    code = (
        "import sys\n"
        "from repro.apps.base import run_machine\n"
        "from repro.apps.presets import smoke_scale\n"
        "from repro.config import MachineConfig\n"
        "for name in ('Maxflow', 'Cholesky'):\n"
        "    factory, _ = smoke_scale()[name]\n"
        "    run_machine(factory(), 'RCinv', MachineConfig(nprocs=4), verify=True)\n"
        "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert out.strip() == "[]"
