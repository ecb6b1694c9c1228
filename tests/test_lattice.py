import numpy as np
import pytest

from qccc.lattice import Lattice, Region, boundary, distance


class TestDistance:
    def test_ring_antipodal(self):
        lat = Lattice((8,))
        assert distance(lat, [0], [4]) == 4

    def test_identical_regions(self):
        lat = Lattice((8,))
        assert distance(lat, [0], [0]) == 0

    def test_torus_corner(self):
        lat = Lattice((4, 4))
        a = [lat.site_index((0, 0))]
        b = [lat.site_index((3, 3))]
        assert distance(lat, a, b) == 2

    def test_empty_region_rejected(self):
        lat = Lattice((4,))
        with pytest.raises(ValueError):
            distance(lat, [], [0])

    def test_symmetric_and_triangle(self):
        lat = Lattice((4, 4))
        rng = np.random.default_rng(3)
        sites = rng.choice(lat.n_sites, size=(30, 3), replace=True)
        for i, j, k in sites:
            dij = distance(lat, [int(i)], [int(j)])
            dji = distance(lat, [int(j)], [int(i)])
            assert dij == dji
            dik = distance(lat, [int(i)], [int(k)])
            dkj = distance(lat, [int(k)], [int(j)])
            assert dij <= dik + dkj

    def test_zero_iff_intersect(self):
        lat = Lattice((6,))
        assert distance(lat, [0, 1], [1, 2]) == 0
        assert distance(lat, [0, 1], [3, 4]) > 0

    def test_bfs_oracle_on_torus(self):
        # independent oracle: explicit modular coordinate distance
        lat = Lattice((4, 4))
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = tuple(rng.integers(0, 4, size=2))
            b = tuple(rng.integers(0, 4, size=2))
            dx = min((a[0] - b[0]) % 4, (b[0] - a[0]) % 4)
            dy = min((a[1] - b[1]) % 4, (b[1] - a[1]) % 4)
            assert distance(lat, [a], [b]) == dx + dy


class TestBoundary:
    def test_interval_endpoints(self):
        lat = Lattice((8,))
        reg, size = boundary(lat, [0, 1, 2, 3])
        assert set(reg.sites) == {0, 3} and size == 2

    def test_full_row_on_torus(self):
        lat = Lattice((4, 4))
        row = [lat.site_index((1, c)) for c in range(4)]
        reg, size = boundary(lat, row)
        assert size == 4 and set(reg.sites) == set(row)

    def test_isolated_sites_all_boundary(self):
        lat = Lattice((8,))
        reg, size = boundary(lat, [0, 2, 4])
        assert size == 3 and set(reg.sites) == {0, 2, 4}

    def test_errors(self):
        lat = Lattice((4,))
        with pytest.raises(ValueError):
            boundary(lat, [])
        with pytest.raises(ValueError):
            boundary(lat, [0, 1, 2, 3])

    def test_contiguous_interval_size_two(self):
        lat = Lattice((9,))
        for ln in range(2, 8):
            _, size = boundary(lat, list(range(ln)))
            assert size == 2

    def test_boundary_no_larger_than_region(self):
        lat = Lattice((4, 4))
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 15))
            sites = list(map(int, rng.choice(16, size=k, replace=False)))
            _, size = boundary(lat, sites)
            assert size <= len(sites)


class TestGeometry:
    def test_site_coord_bijection(self):
        lat = Lattice((3, 5))
        seen = set()
        for s in range(lat.n_sites):
            c = lat.coord(s)
            assert lat.site_index(c) == s
            seen.add(c)
        assert len(seen) == 15

    def test_two_d_neighbors(self):
        lat = Lattice((4, 4))
        for s in range(lat.n_sites):
            assert len(lat.neighbors(s)) == 4

    def test_open_boundary(self):
        lat = Lattice((5,), periodic=False)
        assert lat.neighbors(0) == (1,)
        assert lat.neighbors(2) == (1, 3)

    def test_region_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Region((1, 1, 2))
