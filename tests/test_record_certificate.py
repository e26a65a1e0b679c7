"""`homology` certifies what it reads from each elimination record: a
corrupted multiplier, pivot-row entry, generator entry or coordinate-row
entry makes it raise, and deleting the one check that catches it lets
the corruption through.

The complex is the 2-simplex at sd^1.  The records of its chain
complex, in the order `homology` makes them in degrees 0, 1 and 2: d_0
(zero), d_1 (7 x 12, six pivots, one coordinate row), d_2 in the kernel
coordinates of degree 1 (6 x 6, six pivots, no coordinate row) and the
zero incoming differential of degree 2.  So the third record's L and E
are read by the record check alone, and d_1's coordinate row by the
coordinate-row check alone.  Its one generator, in degree 0, has a zero
differential out, so a generator entry is corrupted on the cochain
complex instead: there the generator of degree 0 comes from delta_0 in
the kernel coordinates of degree 1 (6 x 7, six pivots), and the
generator check alone reads it."""

import pytest

from capstar import chains, elimination
from capstar import intlinalg as la
from capstar.bridge import chain_complex_of, cochain_complex
from capstar.complexes import barycentric_subdivide
from capstar.fixtures import simplex_pair

RECORD = "elimination record does not reproduce the matrix"
KERNEL = "a kernel column is not in the kernel"
LEFT = "a coordinate row does not reproduce its residue row"


def _complex(build=chain_complex_of):
    return build(barycentric_subdivide(simplex_pair(2).ambient).complex)


def _bumped(line: dict, key) -> dict:
    """`line` with 1 added to its entry at `key`, which is nonzero."""
    out = dict(line)
    out[key] += 1
    return out


def _corrupt_third_record(monkeypatch, field):
    """Wrap `eliminate` so that the third record has 1 added to an entry
    off the diagonal of its first line of L or E with one."""
    calls = []
    eliminate = chains.eliminate

    def corrupted(a):
        rec = eliminate(a)
        calls.append(rec)
        if len(calls) != 3:
            return rec
        lines, labels = (rec.L, rec.rows) if field == "L" else (rec.E, rec.cols)
        t = next(t for t, line in enumerate(lines) if len(line) > 1)
        key = next(x for x in lines[t] if x != labels[t])
        lines = lines[:t] + (_bumped(lines[t], key),) + lines[t + 1:]
        parts = {"L": rec.L, "E": rec.E, field: lines}
        return elimination.Elimination(rec.shape, rec.rows, rec.cols, parts["L"], parts["E"],
                              rec.block, rec.residue)

    monkeypatch.setattr(chains, "eliminate", corrupted)


def _corrupt_read(monkeypatch, name):
    """Wrap `Elimination.kernel`, which `homology` calls for the
    generators alone, or `left_rows` so that, on a record with pivots and
    a generator or coordinate row, 1 is added to the entry of the first
    one at the first pivot column (generators) or row (coordinate
    rows)."""
    read = getattr(elimination.Elimination, name)

    def corrupted(self, *args):
        out = read(self, *args)
        if not self.E:
            return out
        if name == "kernel" and out.shape[1]:
            rows = list(out._row_dicts)
            c = self.cols[0]
            rows[c] = {**rows[c], 0: rows[c].get(0, 0) + 1}
            return la.SparseMatrix(out.shape, tuple(rows))
        if name == "left_rows" and out:
            out[0] = {**out[0], self.rows[0]: out[0].get(self.rows[0], 0) + 1}
        return out

    monkeypatch.setattr(elimination.Elimination, name, corrupted)


CASES = {
    "multiplier": (lambda mp: _corrupt_third_record(mp, "L"), "_certify_elimination", RECORD,
                   chain_complex_of),
    "pivot-row entry": (lambda mp: _corrupt_third_record(mp, "E"), "_certify_elimination",
                        RECORD, chain_complex_of),
    "generator entry": (lambda mp: _corrupt_read(mp, "kernel"), "_certify_kernel", KERNEL,
                        cochain_complex),
    "coordinate-row entry": (lambda mp: _corrupt_read(mp, "left_rows"), "_certify_left_rows",
                             LEFT, chain_complex_of),
}


def test_the_uncorrupted_complex_passes_every_check():
    for build in (chain_complex_of, cochain_complex):
        k = _complex(build)
        assert [chains.homology(k, n).group_str() for n in range(3)] == ["Z^1", "0", "0"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_corruption_makes_homology_raise(monkeypatch, case):
    corrupt, _, message, build = CASES[case]
    corrupt(monkeypatch)
    k = _complex(build)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        for n in range(3):
            chains.homology(k, n)


@pytest.mark.parametrize("case", sorted(CASES))
def test_deleting_the_check_lets_the_corruption_through(monkeypatch, case):
    corrupt, check, _, build = CASES[case]
    corrupt(monkeypatch)
    monkeypatch.setattr(elimination, check, lambda *args: None)
    k = _complex(build)
    assert [chains.homology(k, n).degree for n in range(3)] == [0, 1, 2]


def test_a_record_with_an_extra_pivot_row_is_rejected():
    # A = [[1, 0], [0, 0]] has rank 1; an E line without its column of L
    # claimed rank 2, and pairing L with E silently dropped it
    a = la.SparseMatrix.of([[1, 0], [0, 0]])
    rec = elimination.eliminate(a)
    elimination._certify_elimination(rec, a)
    extra = elimination.Elimination(rec.shape, rec.rows, rec.cols, rec.L, rec.E + ({1: 1},),
                                    rec.block, rec.residue)
    assert extra.rank == 2
    with pytest.raises(AssertionError, match="^elimination record does not fit the matrix$"):
        elimination._certify_elimination(extra, a)


def test_a_record_whose_residue_block_is_cut_short_is_rejected():
    # A = [[1, 0], [0, 2], [0, 0]] leaves the 2 x 1 block [[2], [0]] after
    # its unit pivot; a 1 x 1 block [[2]], with its own Smith
    # decomposition, reproduced the rows it has, and pairing the residue
    # rows with the block's rows silently dropped the last one
    a = la.SparseMatrix.of([[1, 0], [0, 2], [0, 0]])
    rec = elimination.eliminate(a)
    elimination._certify_elimination(rec, a)
    assert rec.block.shape == (2, 1)
    short = la.SparseMatrix.of([[2]])
    cut = elimination.Elimination(rec.shape, rec.rows, rec.cols, rec.L, rec.E, short,
                                  la.smith_normal_form(short))
    with pytest.raises(AssertionError, match="^elimination record does not fit the matrix$"):
        elimination._certify_elimination(cut, a)
