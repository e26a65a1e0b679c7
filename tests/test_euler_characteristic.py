"""The homology groups certify the chain complex's size: the alternating
sum of the chain ranks equals the alternating sum of the Betti numbers,
for every fixture complex, every pair model's ambient complex and every
pair C(X)/C(Y), at sd^0, sd^1 and sd^2."""

import pytest

from capstar.bridge import chain_complex_of
from capstar.chains import homology
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.fixtures import pair_models, surfaces

FIXTURES = {**{n: (x, None) for n, x in surfaces().items()},
            **{n: (m.ambient, m.boundary) for n, m in pair_models().items()}}


def alternating(values) -> int:
    return sum((-1) ** n * v for n, v in enumerate(values))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_euler_characteristic_of_chains_and_homology(name):
    x, y = FIXTURES[name]
    for _ in range(3):
        degrees = range(x.dimension + 1)
        assert alternating(map(chain_complex_of(x).rank, degrees)) == x.euler_characteristic()
        for k in [chain_complex_of(x)] + ([] if y is None else [chain_complex_of(x, y)]):
            betti = [homology(k, n).betti for n in degrees]
            assert alternating(map(k.rank, degrees)) == alternating(betti), name
        sd = barycentric_subdivide(x)
        x, y = sd.complex, None if y is None else induced_subdivision(sd, y)
