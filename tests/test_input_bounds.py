"""Degrees and counts are validated at the boundary: a negative degree
or count fails with ValidationError (exit 1 on the command line)."""

import json
import subprocess
import sys

import pytest

from capstar.bridge import SimplicialChain, SimplicialCochain
from capstar.errors import ValidationError
from capstar.fixtures import circle
from capstar.io import parse_chain, parse_cochain, serialize_complex
from capstar.products import cap
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
