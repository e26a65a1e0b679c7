"""Signs in negative degrees stay Python ints, so arithmetic stays exact."""

from capstar.bridge import cochain_complex
from capstar.chains import chain_complex, cone_dual_iso, dual_hom_z, identity_map, shift
from capstar.fixtures import sphere


def _all_ints(matrices):
    return all(type(v) is int for m in matrices for row in m.rows for v in row.values())


def test_shift_by_a_negative_count_keeps_int_differentials():
    k = chain_complex(-1, {0: 1, 1: 1}, {1: [[2]]})
    s = shift(k, -1)
    assert s.sparse and _all_ints(s.sparse.values())


def test_dual_of_a_cochain_complex_keeps_int_differentials():
    d = dual_hom_z(cochain_complex(sphere()))
    assert min(d.ranks) < 0
    assert _all_ints(d.sparse.values())


def test_cone_dual_iso_keeps_int_entries_below_degree_minus_one():
    iso = cone_dual_iso(identity_map(cochain_complex(sphere())))
    negative = [m for n, m in iso.sparse.items() if n <= -2]
    assert negative and _all_ints(negative)
