"""Lattice geometry: site indexing, regions, graph distance and boundaries.

Supports 1D rings/chains and 2D square grids, periodic or open. Sites are
indexed row-major so that state-vector tensor layouts are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Tuple, Union

Coord = Union[int, Tuple[int, ...]]


@dataclass(frozen=True)
class Lattice:
    """Regular lattice in D in {1, 2} dimensions with qudits of one local dimension."""

    dims: Tuple[int, ...]
    periodic: bool = True
    local_dim: int = 2

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (1, 2):
            raise ValueError(f"only 1D and 2D lattices supported, got dims={dims}")
        if any(n < 2 for n in dims):
            raise ValueError(f"each dimension must be >= 2, got dims={dims}")
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be >= 2, got {self.local_dim}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n_sites(self) -> int:
        m = 1
        for n in self.dims:
            m *= n
        return m

    def site_index(self, coord: Coord) -> int:
        """Row-major site index of a coordinate (ints pass through unchanged)."""
        if isinstance(coord, int):
            if not 0 <= coord < self.n_sites:
                raise ValueError(f"site {coord} out of range")
            return coord
        coord = tuple(coord)
        if len(coord) != self.ndim:
            raise ValueError(f"coordinate {coord} does not match dims {self.dims}")
        idx = 0
        for c, n in zip(coord, self.dims):
            if not 0 <= c < n:
                raise ValueError(f"coordinate {coord} out of range for dims {self.dims}")
            idx = idx * n + c
        return idx

    def coord(self, site: int) -> Tuple[int, ...]:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range")
        out = []
        for n in reversed(self.dims):
            out.append(site % n)
            site //= n
        return tuple(reversed(out))

    def neighbors(self, site: int) -> Tuple[int, ...]:
        """Nearest neighbors of a site; 2D per axis when periodic."""
        coord = self.coord(site)
        nbrs = []
        for axis, n in enumerate(self.dims):
            for step in (-1, 1):
                c = coord[axis] + step
                if self.periodic:
                    c %= n
                elif not 0 <= c < n:
                    continue
                nc = list(coord)
                nc[axis] = c
                idx = self.site_index(tuple(nc))
                if idx != site and idx not in nbrs:
                    nbrs.append(idx)
        return tuple(sorted(nbrs))

    def adjacent(self, a: int, b: int) -> bool:
        """True when b is a nearest neighbor of a; either site out of range raises."""
        return self.site_index(b) in self.neighbors(a)

    def region(self, sites: Iterable[Coord]) -> "Region":
        return Region(tuple(self.site_index(s) for s in sites))


@dataclass(frozen=True)
class Region:
    """An ordered set of site indices (duplicates rejected)."""

    sites: Tuple[int, ...]

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        if len(set(sites)) != len(sites):
            raise ValueError("region contains duplicate sites")
        object.__setattr__(self, "sites", sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site: int) -> bool:
        return site in self.sites


def _as_region(lat: Lattice, region: Union[Region, Iterable[Coord]]) -> Region:
    if isinstance(region, Region):
        for s in region:
            if not 0 <= s < lat.n_sites:
                raise ValueError(f"site {s} outside lattice")
        return region
    return lat.region(region)


def distance(lat: Lattice, region_a, region_b) -> int:
    """Minimal number of lattice edges between any site of A and any site of B.

    Multi-source BFS from A; 0 when the regions intersect.
    """
    a = _as_region(lat, region_a)
    b = _as_region(lat, region_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("distance requires non-empty regions")
    targets = set(b.sites)
    frontier = deque((s, 0) for s in a.sites)
    seen = set(a.sites)
    while frontier:
        site, d = frontier.popleft()
        if site in targets:
            return d
        for nb in lat.neighbors(site):
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, d + 1))
    raise ValueError("regions are disconnected on this lattice")


def boundary(lat: Lattice, region_a) -> Tuple[Region, int]:
    """Inner boundary of A: sites of A adjacent to at least one site outside A."""
    a = _as_region(lat, region_a)
    if len(a) == 0:
        raise ValueError("boundary of an empty region is undefined")
    if len(a) == lat.n_sites:
        raise ValueError("boundary of the full lattice is undefined")
    inside = set(a.sites)
    edge = tuple(s for s in a.sites if any(nb not in inside for nb in lat.neighbors(s)))
    reg = Region(edge)
    return reg, len(reg)
