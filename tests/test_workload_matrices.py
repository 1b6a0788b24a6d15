"""Sparse SPD generation and symbolic Cholesky."""

import numpy as np
import pytest

from repro.workloads.matrices import (
    find_supernodes,
    grid_laplacian,
    nested_dissection_order,
    random_spd,
    symbolic_cholesky,
)
from tests.oracles import reference_cholesky


class TestGridLaplacian:
    def test_dimensions(self):
        a = grid_laplacian(3, 4)
        assert a.n == 12

    def test_symmetric_positive_definite(self):
        dense = grid_laplacian(4, 4).dense()
        assert np.allclose(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_five_point_stencil_nnz(self):
        a = grid_laplacian(3, 3, ordering="natural")
        # 9 diagonal + 12 grid edges (lower triangle)
        assert a.nnz_lower == 9 + 12

    def test_nd_is_permutation_of_natural(self):
        nat = grid_laplacian(4, 5, ordering="natural").dense()
        nd = grid_laplacian(4, 5, ordering="nd").dense()
        assert np.allclose(sorted(np.linalg.eigvalsh(nat)), sorted(np.linalg.eigvalsh(nd)))

    def test_columns_sorted_diagonal_first(self):
        a = grid_laplacian(4, 4)
        for j, rows in enumerate(a.cols):
            assert rows[0] == j
            assert all(rows[k] < rows[k + 1] for k in range(len(rows) - 1))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid_laplacian(0, 3)

    def test_unknown_ordering(self):
        with pytest.raises(ValueError):
            grid_laplacian(3, 3, ordering="amd")


class TestNestedDissection:
    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (8, 8), (7, 3)])
    def test_is_permutation(self, rows, cols):
        perm = nested_dissection_order(rows, cols)
        assert sorted(perm) == list(range(rows * cols))

    def test_gives_parallel_etree(self):
        sym_nd = symbolic_cholesky(grid_laplacian(8, 8, ordering="nd"))
        sym_nat = symbolic_cholesky(grid_laplacian(8, 8, ordering="natural"))
        leaves_nd = sum(1 for r in sym_nd.row_struct if len(r) == 0)
        leaves_nat = sum(1 for r in sym_nat.row_struct if len(r) == 0)
        assert leaves_nd > leaves_nat


class TestRandomSPD:
    def test_spd(self):
        dense = random_spd(20, density=0.2, seed=1).dense()
        assert np.allclose(dense, dense.T)
        assert np.all(np.linalg.eigvalsh(dense) > 0)

    def test_deterministic_by_seed(self):
        a = random_spd(15, seed=3).dense()
        b = random_spd(15, seed=3).dense()
        assert np.array_equal(a, b)

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            random_spd(10, density=1.5)


class TestSymbolicCholesky:
    def test_structure_covers_numeric_factor(self):
        """The symbolic pattern must contain every numeric non-zero."""
        a = grid_laplacian(5, 5)
        sym = symbolic_cholesky(a)
        l = reference_cholesky(a)
        for j in range(a.n):
            pattern = set(int(i) for i in sym.col_struct[j])
            numeric = set(np.nonzero(np.abs(l[:, j]) > 1e-12)[0].tolist())
            assert numeric <= pattern

    def test_etree_parent_is_first_offdiagonal(self):
        a = grid_laplacian(4, 4)
        sym = symbolic_cholesky(a)
        for j in range(a.n):
            struct = sym.col_struct[j]
            if len(struct) > 1:
                assert sym.parent[j] == struct[1]
            else:
                assert sym.parent[j] == -1

    def test_row_struct_inverts_col_struct(self):
        sym = symbolic_cholesky(grid_laplacian(4, 4))
        for j in range(sym.n):
            for k in sym.row_struct[j]:
                assert j in set(int(i) for i in sym.col_struct[int(k)])

    def test_dep_counts(self):
        sym = symbolic_cholesky(grid_laplacian(3, 3))
        counts = sym.dep_counts()
        assert counts[0] == 0  # first column never depends on anything
        assert all(counts[j] == len(sym.row_struct[j]) for j in range(sym.n))

    def test_nnz_at_least_input(self):
        a = grid_laplacian(6, 6)
        sym = symbolic_cholesky(a)
        assert sym.nnz >= a.nnz_lower  # fill-in only adds


class TestSupernodes:
    def test_partition_covers_all_columns(self):
        sym = symbolic_cholesky(grid_laplacian(6, 6))
        cols = []
        for first, last in sym.supernodes:
            cols.extend(range(first, last + 1))
        assert cols == list(range(sym.n))

    def test_supernode_chains_have_nested_structure(self):
        sym = symbolic_cholesky(grid_laplacian(6, 6))
        for first, last in sym.supernodes:
            for j in range(first, last):
                assert sym.parent[j] == j + 1

    def test_find_supernodes_matches_attribute(self):
        sym = symbolic_cholesky(grid_laplacian(5, 5))
        assert find_supernodes(sym) == sym.supernodes
