"""Degrees and counts are validated at the boundary: a negative degree
or count fails with ValidationError (exit 1 on the command line)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from capstar.bm import subdivision_invariance_check
from capstar.bridge import SimplicialChain, SimplicialCochain, chain_complex_of
from capstar.chains import chain_complex, homology
from capstar.errors import ValidationError
from capstar.fixtures import circle, interval_pair
from capstar.io import parse_chain, parse_cochain, serialize_complex
from capstar.products import cap, supported_cap
from capstar.verify import run_suite


def _cli(*args):
    proc = subprocess.run([sys.executable, "-m", "capstar", *args], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_rejects_negative_degrees():
    x = circle()
    with pytest.raises(ValidationError):
        parse_cochain({"degree": -1, "values": {}}, x)
    with pytest.raises(ValidationError):
        parse_chain({"degree": -2, "values": {}}, x)


def test_cap_rejects_negative_degrees():
    x = circle()
    alpha = SimplicialChain(x, 1, {(1, 2): 1})
    with pytest.raises(ValidationError):
        cap(alpha, SimplicialCochain(x, -1, {}))
    with pytest.raises(ValidationError):
        cap(SimplicialChain(x, -1, {}), SimplicialCochain(x, -1, {}))


def test_cli_cap_negative_degree_cochain_exits_one(tmp_path):
    xp = _write(tmp_path, "circle.json", serialize_complex(circle()))
    up = _write(tmp_path, "u.json", json.dumps({"degree": -1, "values": {}}))
    ap = _write(tmp_path, "a.json", json.dumps({"degree": 5, "values": {}}))
    zp = _write(tmp_path, "z.json", json.dumps({"name": "z", "simplices": [[1]]}))
    code, out, err = _cli("cap", xp, "--cochain", up, "--chain", ap, "--support", zp)
    assert code == 1
    assert "class" not in out
    assert "negative degree" in err


def test_cli_subdivide_negative_times_exits_one(tmp_path):
    xp = _write(tmp_path, "circle.json", serialize_complex(circle()))
    code, out, err = _cli("subdivide", xp, "--times", "-1")
    assert code == 1
    assert out == ""
    assert "--times" in err


def test_run_suite_rejects_fewer_than_one_trial():
    for trials in (0, -5):
        with pytest.raises(ValidationError):
            run_suite(circle(), trials=trials)


def test_cli_verify_negative_trials_exits_one(tmp_path):
    xp = _write(tmp_path, "circle.json", serialize_complex(circle()))
    code, out, err = _cli("verify", xp, "--trials", "-5")
    assert code == 1
    assert "PASS" not in out
    assert "trials" in err


@pytest.mark.parametrize("ranks", [{0: 2.7}, {0.9: 2}, {"1": 2}], ids=repr)
def test_chain_complex_rejects_ranks_and_degrees_that_are_not_integers(ranks):
    with pytest.raises(ValidationError, match="is not an integer"):
        chain_complex(-1, ranks, {})


def test_chain_complex_rejects_a_negative_rank_naming_its_degree():
    with pytest.raises(ValidationError, match="^rank -3 at degree 1 is negative$"):
        chain_complex(-1, {0: 1, 1: -3}, {})
    with pytest.raises(ValidationError, match="is not an integer"):
        chain_complex(-1, {0: 1}, {0.5: [[0]]})


@pytest.mark.parametrize("degree", [1.5, 2.0, "1"], ids=repr)
def test_homology_rejects_a_degree_that_is_not_an_integer(degree):
    k = chain_complex_of(circle())
    with pytest.raises(ValidationError, match="is not an integer"):
        homology(k, degree)
    homology(k, 2)  # once degree 2 is known, 2.0 is still refused
    with pytest.raises(ValidationError, match="is not an integer"):
        homology(k, degree)


@pytest.mark.parametrize("count", [1.5, 1.0, "1"], ids=repr)
def test_counts_that_are_not_integers_are_refused(count):
    x = circle()
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    with pytest.raises(ValidationError, match="is not an integer"):
        supported_cap(x, z, u, alpha, presubdivide=count)
    with pytest.raises(ValidationError, match="is not an integer"):
        subdivision_invariance_check(interval_pair(), times=count)
    with pytest.raises(ValidationError, match="is not an integer"):
        run_suite(x, trials=count)


def test_integer_counts_of_any_integer_type_are_read():
    x = circle()
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    assert supported_cap(x, z, u, alpha, presubdivide=np.int64(1)).class_in_z.coords == (1,)
    assert subdivision_invariance_check(interval_pair(), times=np.int8(1)).passed
    assert all(r.passed for r in run_suite(x, trials=np.int64(2)))
