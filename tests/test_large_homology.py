"""Homology with representatives at sizes where a cubic Smith reduction
took over a minute: torus sd^2 (1,512 cells) and RP^2 sd^2 (1,081 cells),
the next size, Klein sd^2 (3,456 cells), and sd^3 of the torus (9,072
cells), of the Klein bottle (20,736 cells) and of the 3-simplex (61,649
cells), which dense matrices put out of reach (Klein sd^3's dense d_2
alone has 72M entries).  The time bound is generous: on 2 vCPUs torus
and RP^2 at sd^2 together take about 0.3 s, Klein sd^2 about 0.4 s,
torus sd^3 about 0.3-0.5 s, Klein sd^3 about 0.8-1.2 s and the 3-simplex
at sd^3 about 3-4 s (it took 24 s while each differential was reduced
twice), against about 70 s for torus and RP^2 at sd^2 with the cubic
kernel.  It is a gate like any other check."""

import time

import pytest

from capstar.bridge import chain_complex_of
from capstar.chains import homology
from capstar.complexes import barycentric_subdivide
from capstar.fixtures import klein_bottle, projective_plane, simplex_pair, torus

BOUND_S = 30.0


def _sd(x, times):
    for _ in range(times):
        x = barycentric_subdivide(x).complex
    return x


def test_torus_and_rp2_at_sd2_in_every_degree():
    start = time.perf_counter()
    for make, cells, groups in [
        (torus, 1512, [(1, ()), (2, ()), (1, ())]),
        (projective_plane, 1081, [(1, ()), (0, (2,)), (0, ())]),
    ]:
        x = _sd(make(), 2)
        k = chain_complex_of(x)
        assert k.total_rank() == cells
        for n, (betti, torsion) in enumerate(groups):
            g = homology(k, n)
            assert (g.betti, g.torsion) == (betti, torsion)
            for i, rep in enumerate(g.cycle_basis):
                assert g.coords_of(rep) == tuple(int(i == j) for j in range(g.dim))
    elapsed = time.perf_counter() - start
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"


def test_klein_sd2_homology_with_representatives():
    start = time.perf_counter()
    k = chain_complex_of(_sd(klein_bottle(), 2))
    assert k.total_rank() == 3456
    for n, (betti, torsion) in enumerate([(1, ()), (1, (2,)), (0, ())]):
        g = homology(k, n)
        assert (g.betti, g.torsion) == (betti, torsion)
        for i, rep in enumerate(g.cycle_basis):
            assert g.coords_of(rep) == tuple(int(i == j) for j in range(g.dim))
    elapsed = time.perf_counter() - start
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"


@pytest.mark.parametrize("make, cells, groups", [
    (torus, 9072, [(1, ()), (2, ()), (1, ())]),
    (klein_bottle, 20736, [(1, ()), (1, (2,)), (0, ())]),
    (lambda: simplex_pair(3).ambient, 61649, [(1, ()), (0, ()), (0, ()), (0, ())]),
], ids=["torus", "klein", "disk3"])
def test_sd3_homology_with_representatives(make, cells, groups):
    start = time.perf_counter()
    k = chain_complex_of(_sd(make(), 3))
    assert k.total_rank() == cells
    for n, (betti, torsion) in enumerate(groups):
        g = homology(k, n)
        assert (g.betti, g.torsion) == (betti, torsion)
        for i, rep in enumerate(g.cycle_basis):
            assert g.coords_of(rep) == tuple(int(i == j) for j in range(g.dim))
    elapsed = time.perf_counter() - start
    assert elapsed < BOUND_S, f"{elapsed:.1f} s"
