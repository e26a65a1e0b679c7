"""numpy, dataclasses and inspect stay off capstar's import path:
importing capstar, running every CLI command shape and the library
calls the CLI never makes, reading homology representatives among
them, load none of them.  Only the dense remainder loads numpy, and it
still returns numpy arrays; `cycle_basis` is not part of it, and its
tuples equal the sparse generators row for row.  numpy integers, bools
and arrays are still read as coefficients and entries, and floats
still refused."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from capstar import bridge, chains
from capstar import intlinalg as la
from capstar.bridge import SimplicialChain, chain_complex_of, cochain_complex
from capstar.chains import HomologyGroup, homology
from capstar.complexes import barycentric_subdivide, induced_subdivision
from capstar.errors import ValidationError
from capstar.fixtures import circle, klein_bottle, pair_models, surfaces, torus

ROOT = Path(__file__).resolve().parent.parent

EXTRA_FILES = {
    "u.json": {"degree": 1, "values": {"1,2": 1}},
    "a.json": {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}},
    "z.json": {"name": "z", "simplices": [[1]]},
    "cup-u.json": {"degree": 1, "values": {"0,1": 1, "2,3": -2}},
    "cup-v.json": {"degree": 1, "values": {"1,3": 1}},
    "rel-u.json": {"degree": 1, "values": {"a,m": 1}},
    "rel-a.json": {"degree": 1, "values": {"a,m": 1, "b,m": -1}},
    "rel-z.json": {"name": "mid", "simplices": [["m"]]},
}


def _commands(d):
    """The nine command shapes of the benchmark's `cli` workload."""
    cap = ["cap", f"{d}/circle.json", "--cochain", f"{d}/u.json", "--chain", f"{d}/a.json",
           "--support", f"{d}/z.json"]
    return [
        ["validate", f"{d}/torus7.json"],
        ["homology", f"{d}/klein.json"],
        ["homology", f"{d}/cylinder.json", "--rel", f"{d}/cylinder-boundary.json", "--bm"],
        ["cup", f"{d}/torus7.json", "--u", f"{d}/cup-u.json", "--v", f"{d}/cup-v.json"],
        cap,
        ["cap", f"{d}/interval.json", "--cochain", f"{d}/rel-u.json", "--chain",
         f"{d}/rel-a.json", "--support", f"{d}/rel-z.json", "--rel",
         f"{d}/interval-boundary.json"],
        cap + ["--presubdivide", "1"],
        ["subdivide", f"{d}/torus7.json", "--times", "2"],
        ["verify", f"{d}/rp2.json", "--trials", "5", "--seed", "3"],
    ]


# Run in a fresh interpreter: writes the fixture files into argv[1], runs
# each command through `capstar.cli.main` and prints the exit codes and
# whether numpy, dataclasses or inspect got loaded.
CHILD = """
import contextlib, io, json, runpy, sys
sys.argv = ["write_fixture_files.py", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    runpy.run_path("scripts/write_fixture_files.py", run_name="__main__")
from capstar.cli import main
codes = []
for cmd in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(cmd))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules,
                  "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules}))
"""


def _fresh_python(args, stdin=""):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, input=stdin,
                          capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_capstar_loads_no_numpy():
    out = _fresh_python(["-c", "import sys, capstar, capstar.io, capstar.verify, capstar.cli; "
                               "print('numpy' in sys.modules, 'dataclasses' in sys.modules, "
                               "'inspect' in sys.modules)"])
    assert out.strip() == "False False False"


# Library calls that no CLI command makes, in a fresh interpreter; prints
# their results and whether numpy got loaded.  Among them: homology in
# every degree, with the coordinates of each representative, of a
# complex with torsion, of a pair and of a cochain complex, and the
# fundamental cycle of the torus read off its representative.
LIBRARY = """
import sys
from capstar import intlinalg as la
from capstar.bm import bm_supported_cap, subdivision_invariance_check
from capstar.bridge import SimplicialChain, SimplicialCochain, chain_complex_of
from capstar.bridge import cochain_complex, relative_chain_complex, subdivision_chain_map
from capstar.bridge import vector_to_chain
from capstar.chains import cone_dual_iso, homology, is_quasi_isomorphism, uct_check
from capstar.complexes import barycentric_subdivide
from capstar.fixtures import cylinder_pair, interval_pair, klein_bottle, torus
def reps(k):
    groups = [homology(k, n) for n in range(3)]
    return [[g.coords_of(r) for r in g.cycle_basis] for g in groups]
cyl = cylinder_pair()
fundamental = vector_to_chain(torus(), 2, homology(chain_complex_of(torus()), 2).cycle_basis[0])
print(reps(chain_complex_of(klein_bottle())),
      reps(relative_chain_complex(cyl.ambient, cyl.boundary)[0]),
      reps(cochain_complex(torus())), len(fundamental.coefficients))
pair = interval_pair()
x = pair.ambient
u = SimplicialCochain(x, 1, {("a", "m"): 1})
alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
cap = bm_supported_cap(pair, x.subcomplex_closure([("m",)]), u, alpha)
iso = cone_dual_iso(subdivision_chain_map(barycentric_subdivide(klein_bottle())))
x_mat = la.solve_integer(la.smith_normal_form([[2, 0], [0, 3]]), [[4], [9]])
print(subdivision_invariance_check(cylinder_pair()).passed, cap.class_in_z.coords,
      uct_check(chain_complex_of(klein_bottle())).passed, is_quasi_isomorphism(iso)[0],
      la.kernel_basis([[1, 1]]).apply([1]), x_mat.apply([1]), "numpy" in sys.modules)
"""


def test_library_calls_the_cli_never_makes_load_no_numpy():
    out = _fresh_python(["-c", LIBRARY])
    assert out.strip().splitlines() == [
        "[[(1,)], [(1, 0), (0, 1)], []] [[], [(1,)], [(1,)]] [[(1,)], [(1, 0), (0, 1)], [(1,)]] 14",
        "True (1,) True True [-1, 1] [2, 3] False"]


def test_every_cli_command_shape_runs_without_numpy(tmp_path):
    for fname, payload in EXTRA_FILES.items():
        (tmp_path / fname).write_text(json.dumps(payload))
    cmds = _commands(tmp_path)
    out = json.loads(_fresh_python(["-c", CHILD, str(tmp_path)], json.dumps(cmds)))
    assert out == {"codes": [0] * len(cmds), "numpy": False, "dataclasses": False,
                   "inspect": False}


# -- the dense remainder ---------------------------------------------------


INTLINALG = ["SparseMatrix", "SmithDecomposition", "sparse_identity", "smith_normal_form",
             "kernel_basis", "solve_integer", "lattice_contains", "lattices_equal"]


def _read_only_object_array(a, shape):
    return (isinstance(a, np.ndarray) and a.dtype == object and a.shape == shape
            and not a.flags.writeable and all(type(e) is int for e in a.flat))


def _int_tuple(g, length):
    return type(g) is tuple and len(g) == length and all(type(e) is int for e in g)


def test_dense_exports_are_numpy_arrays():
    assert la.__all__ == INTLINALG
    for owner, names in [(la, ["as_matrix", "zeros", "identity", "matmul", "_integral",
                               "_kernel", "_solve", "_contains"]),
                         (chains.ChainComplexZ, ["differentials"]),
                         (chains.ChainMap, ["matrix", "matrices"]),
                         (chains.InducedMap, ["matrix"]), (bridge, ["_coordinates"])]:
        assert not [n for n in names if hasattr(owner, n)], owner
    x = torus()
    k = chain_complex_of(x)
    h1 = homology(k, 1)
    # no basis of the cycles is kept: the generators come without one
    assert not hasattr(h1, "_kernel")
    # the representatives are no longer dense: a tuple of tuples of Python ints
    assert type(h1.cycle_basis) is tuple and len(h1.cycle_basis) == 2
    assert all(_int_tuple(g, k.rank(1)) for g in h1.cycle_basis)
    assert h1.cycle_basis is homology(k, 1).cycle_basis
    assert _read_only_object_array(k.d(1), (k.rank(0), k.rank(1)))
    dense = k.sparse_d(1).toarray()
    assert dense.flags.writeable and np.array_equal(dense, k.d(1))

    snf = la.smith_normal_form([[2, 4], [6, 8]])
    for name, m in zip(snf.sparse._fields, snf.sparse):
        got = getattr(snf, name)
        assert isinstance(got, np.ndarray) and got.dtype == object and got.shape == (2, 2)
        assert np.array_equal(got, m.toarray()), name
    # the sparse results of the kept functions
    assert isinstance(la.kernel_basis([[1, 1]]), la.SparseMatrix)
    assert la.solve_integer(snf, [[2], [6]]).shape == (2, 1)
    assert bridge.chain_to_vector(SimplicialChain(circle(), 1, {(1, 2): 3})) == [3, 0, 0]
    # numpy input is read by protocol, not by type: an array through its
    # tolist(), a scalar through its item(); a vector has one dimension
    assert not [n for n in ["sys", "_is_array", "_exact"] if hasattr(la, n)]
    assert la.SparseMatrix.of(np.array([[True, 2]])).rows == ({0: 1, 1: 2},)
    assert la._entry(np.int8(-4)) == -4 and type(la._entry(np.int8(-4))) is int
    assert la._vector(np.array([1, 2], dtype=np.uint8)) == [1, 2]
    with pytest.raises(ValidationError, match=r"^entry \[1\] is not an integer$"):
        la._vector(np.array([[1], [2]], dtype=np.uint8))
    assert la.SparseMatrix.of(np.array([[0, 3], [4, 0]])).rows == ({1: 3}, {0: 4})


FIXTURES = {**{n: (x, None) for n, x in surfaces().items()},
            **{n: (m.ambient, m.boundary) for n, m in pair_models().items()}}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_representatives_are_the_generators_row_for_row(name):
    # at sd^0 and sd^1, chain and cochain complexes, absolute and relative
    x, y = FIXTURES[name]
    sd = barycentric_subdivide(x)
    for x, y in [(x, y), (sd.complex, None if y is None else induced_subdivision(sd, y))]:
        for y in (None,) if y is None else (None, y):
            for k in (chain_complex_of(x, y), cochain_complex(x, y)):
                for n in range(x.dimension + 1):
                    g = homology(k, n)
                    width = g._gens.shape[1]
                    assert all(_int_tuple(rep, width) for rep in g.cycle_basis), n
                    assert g.cycle_basis == tuple(map(tuple, g._gens.toarray().tolist())), n
                    assert len(g.cycle_basis) == g.dim


# -- compatibility edges ----------------------------------------------------


def test_keyword_built_groups_compare_as_before():
    k = chain_complex_of(torus())
    h1 = homology(k, 1)
    same = HomologyGroup(degree=1, betti=2, torsion=(), cycle_basis=h1.cycle_basis)
    assert same == h1 and h1 == same
    assert same.cycle_basis is not None and len(same.cycle_basis) == 2
    assert same.group_str() == "Z^2"
    swapped = HomologyGroup(degree=1, betti=2, torsion=(), cycle_basis=h1.cycle_basis[::-1])
    assert swapped != h1
    wrong = HomologyGroup(degree=1, betti=3, torsion=(), cycle_basis=h1.cycle_basis)
    assert wrong != h1
    empty = HomologyGroup(degree=2, betti=0, torsion=(), cycle_basis=())
    assert empty.cycle_basis == () and empty.group_str() == "0"
    assert empty == HomologyGroup(degree=2, betti=0, torsion=(), cycle_basis=())
    assert empty == homology(chain_complex_of(circle()), 2)
    assert HomologyGroup(degree=1, betti=0, torsion=(2,), cycle_basis=()).group_str() == "Z/2"


def test_numpy_integers_and_bools_are_still_read():
    c = SimplicialChain(circle(), 1, {(1, 2): np.int64(2), (1, 3): np.True_, (2, 3): np.uint8(0)})
    assert c.coefficients == {(1, 2): 2, (1, 3): 1}
    assert all(type(v) is int for v in c.coefficients.values())
    m = la.SparseMatrix.of([[np.int64(-2), np.False_], [np.True_, 0]])
    assert m.rows == ({0: -2}, {0: 1}) and all(type(e) is int for r in m.rows for e in r.values())
    m = la.SparseMatrix.of(np.array([[0, 5]], dtype=np.int16))
    assert m.shape == (1, 2) and m.rows == ({1: 5},)
    h1 = homology(chain_complex_of(klein_bottle()), 1)
    g = h1.cycle_basis[0]
    assert h1.coords_of([np.int64(e) for e in g]) == h1.coords_of(np.array(g, dtype=np.int32))
    assert h1.coords_of(np.array(g, dtype=np.int32))[0] == 1


@pytest.mark.parametrize("bad", [1.0, np.float64(1.0)], ids=repr)
def test_floats_are_still_refused_with_the_same_text(bad):
    with pytest.raises(ValidationError, match=f"^{re.escape(f'entry {bad!r} is not an integer')}$"):
        SimplicialChain(circle(), 1, {(1, 2): bad})
    with pytest.raises(ValidationError, match="is not an integer"):
        la.SparseMatrix.of([[1, bad]])
    with pytest.raises(ValidationError, match="is not an integer"):
        homology(chain_complex_of(circle()), 1).coords_of([bad, bad, -bad])
    with pytest.raises(ValidationError, match=r"^entry 1\.0 is not an integer$"):
        la.SparseMatrix.of(np.array([[1.0]]))
    with pytest.raises(ValidationError, match=r"^entry 1\.0 is not an integer$"):
        homology(chain_complex_of(circle()), 1).coords_of(np.array([1.0, 1.0, -1.0]))
