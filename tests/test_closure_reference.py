"""The face closure in rank space agrees with the token-by-token closure
kept in `reference_closure`: the same vertex order, the same levels and
the same order within each level, on random maximal-simplex lists, on seeded
lists whose face keys outgrow 64 bits, and on every fixture complex and
pair at sd^0..sd^2 (whose subdivisions and star views run through
`_levels`)."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_closure as ref
from capstar.complexes import (
    barycentric_subdivide,
    closed_star,
    from_maximal_simplices,
    induced_subdivision,
)
from capstar.fixtures import pair_models, surfaces
from capstar.io import parse_complex, serialize_complex

INTS = list(range(-3, 9))
STRS = ["a", "b", "c", "v10", "v2", "5", "-1", "b(1.2)"]
POOLS = {"int": INTS, "str": STRS, "mixed": INTS[:6] + STRS[:5]}


@st.composite
def complex_files(draw):
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    simplex = st.integers(1, 5).flatmap(
        lambda n: st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    simplices = draw(st.lists(simplex, max_size=12))
    data = {"name": "random", "simplices": simplices}
    if draw(st.booleans()):
        mentioned = {v for s in simplices for v in s}
        extra = draw(st.lists(st.sampled_from(pool), max_size=3))
        data["vertex_order"] = draw(st.permutations(sorted(mentioned | set(extra), key=repr)))
    return data


def assert_same_complex(got, want):
    assert got.vertex_order == want.vertex_order
    assert got.simplices_by_dim == want.simplices_by_dim
    assert got.name == want.name
    assert got._index == want._index
    assert [type(v) for v in got.vertex_order] == [type(v) for v in want.vertex_order]


@given(complex_files())
def test_random_closure_matches_the_reference(data):
    want = ref.from_maximal_simplices(
        data["simplices"], order=data.get("vertex_order"), name=data["name"])
    assert_same_complex(parse_complex(data), want)


def _assert_closure_matches(maximal, order=None):
    want = ref.from_maximal_simplices(maximal, order=order, name="seeded")
    assert_same_complex(from_maximal_simplices(maximal, order=order, name="seeded"), want)


def test_closure_with_keys_beyond_64_bits():
    rng = random.Random(2201)
    tokens = rng.sample(range(10**8, 10**9), 20_000)
    maximal = [rng.sample(tokens, 5) for _ in range(400)]
    # base 20,000 puts the 4-simplex keys near 20,000**5 > 2**64
    assert len(tokens) ** 5 > 2**64
    _assert_closure_matches(maximal, order=tokens)
    _assert_closure_matches(maximal)


def test_closure_of_mixed_lengths_repeats_and_listed_faces():
    rng = random.Random(2202)
    pool = list(range(-20, 40)) + [f"v{i}" for i in range(30)]
    maximal = [rng.sample(pool, rng.randint(1, 6)) for _ in range(300)]
    # a maximal simplex listed twice, in another vertex order, and some of its faces
    maximal += [list(reversed(s)) for s in maximal[:20]] + [s[:2] for s in maximal[20:60]]
    rng.shuffle(maximal)
    _assert_closure_matches(maximal)
    _assert_closure_matches(maximal, order=rng.sample(pool, len(pool)))


def test_closure_of_one_ten_vertex_simplex():
    maximal = [["j", 3, "a", 7, 1, "e", 0, 9, "b", 5]]
    _assert_closure_matches(maximal)
    assert from_maximal_simplices(maximal).num_simplices() == 2**10 - 1


def _ladder(x, y):
    """(complex, subcomplex or None) at sd^0, sd^1 and sd^2."""
    out = [(x, y)]
    for _ in range(2):
        sd = barycentric_subdivide(x)
        x, y = sd.complex, None if y is None else induced_subdivision(sd, y)
        out.append((x, y))
    return out


FIXTURES = {**{n: (x, None) for n, x in surfaces().items()},
            **{n: (m.ambient, m.boundary) for n, m in pair_models().items()}}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_closure_matches_the_reference(name):
    for x, y in _ladder(*FIXTURES[name]):
        # subdivision's levels
        assert x.simplices_by_dim == ref._levels(x.all_simplices(), x._rank)
        # parse of the serialised file
        data = json.loads(serialize_complex(x))
        want = ref.from_maximal_simplices(
            data["simplices"], order=data["vertex_order"], name=data["name"])
        assert_same_complex(parse_complex(data), want)
        assert parse_complex(data) == x
        # star and boundary views as complexes of their own
        first = x.subcomplex_closure([x.simplices_of_dim(0)[0]])
        for sub in [closed_star(x, first)] + ([] if y is None else [y]):
            view = sub.as_complex("view")
            assert view.simplices_by_dim == ref._levels(sub.simplices, x._rank)
