#!/usr/bin/env python3
"""Sparse Cholesky factorisation study (paper Figure 2) + Table 1 row.

Factors a nested-dissection-ordered grid Laplacian with a central work
queue on all five memory systems, verifies the factor against numpy,
and prints the overhead breakdown and the Table 1 row of its z-machine
run.

Usage:  python examples/cholesky_study.py [grid_side]
"""

import sys

from repro import MachineConfig, run_study, table1_rows
from repro.analysis import format_figure, format_table1
from repro.apps import Cholesky
from repro.workloads import grid_laplacian, symbolic_cholesky


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    cfg = MachineConfig(nprocs=16)
    matrix = grid_laplacian(side, side)
    sym = symbolic_cholesky(matrix)
    print(
        f"Matrix: {matrix.n}x{matrix.n} grid Laplacian, "
        f"{matrix.nnz_lower} non-zeros (lower), {sym.nnz} in the factor, "
        f"{len(sym.supernodes)} supernodes"
    )
    print("(paper: 1086x1086, 30,824 nnz, 110,461 in factor, 506 supernodes)\n")
    factory = lambda: Cholesky(matrix=matrix)  # noqa: E731
    study = run_study(factory, cfg)
    print(format_figure(study, "Cholesky — cf. paper Figure 2"))
    print()
    print(format_table1(table1_rows([study])))
    print("\nEvery run verified: simulated parallel factor == numpy.linalg.cholesky.")


if __name__ == "__main__":
    main()
