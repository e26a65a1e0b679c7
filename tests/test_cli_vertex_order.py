"""Support and boundary subcomplex files may list their simplices in any
vertex order; they are read in the ambient complex's order."""

import json
import subprocess
import sys

from capstar.complexes import barycentric_subdivide, from_maximal_simplices
from capstar.io import serialize_complex


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "capstar", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


def _subdivided_triangle(tmp_path):
    x = barycentric_subdivide(from_maximal_simplices([[1, 2, 3]])).complex
    return x, write(tmp_path, "x.json", serialize_complex(x))


def test_cap_support_file_in_its_own_vertex_order(tmp_path):
    x, xp = _subdivided_triangle(tmp_path)
    edge = ("b(1.3)", "b(1.2.3)")
    assert edge in x
    # without a vertex_order the file sorts its tokens as strings,
    # which puts b(1.2.3) first
    zp = write(tmp_path, "z.json", {"name": "z", "simplices": [list(edge)]})
    # on a disk the only closed 0-cochain vanishing off the star is zero
    up = write(tmp_path, "u.json", {"degree": 0, "values": {}})
    ap = write(tmp_path, "a.json", {"degree": 0, "values": {"b(1.3)": 1}})
    code, out, err = run_cli("cap", xp, "--cochain", up, "--chain", ap, "--support", zp)
    assert code == 0, err
    assert "class: 0 in H_0(Z) = Z^1" in out
    zp2 = write(tmp_path, "z2.json",
                {"name": "z", "simplices": [list(edge)], "vertex_order": list(edge)})
    assert run_cli("cap", xp, "--cochain", up, "--chain", ap, "--support", zp2)[1] == out


def test_homology_rel_file_in_its_own_vertex_order(tmp_path):
    x, xp = _subdivided_triangle(tmp_path)
    edge = ["b(1.3)", "b(1.2.3)"]
    yp = write(tmp_path, "y.json", {"name": "y", "simplices": [edge]})
    code, out, err = run_cli("homology", xp, "--rel", yp)
    assert code == 0, err
    # a disk modulo a contractible edge
    assert out == "H_0 = 0\nH_1 = 0\nH_2 = 0\n"
    yp2 = write(tmp_path, "y2.json", {"name": "y", "simplices": [edge], "vertex_order": edge})
    assert run_cli("homology", xp, "--rel", yp2)[1] == out


def test_unknown_token_in_support_file_is_still_rejected(tmp_path):
    x, xp = _subdivided_triangle(tmp_path)
    zp = write(tmp_path, "z.json", {"name": "z", "simplices": [["b(1.3)", "nowhere"]]})
    up = write(tmp_path, "u.json", {"degree": 0, "values": {"b(1.3)": 1}})
    ap = write(tmp_path, "a.json", {"degree": 0, "values": {"b(1.3)": 1}})
    code, _, err = run_cli("cap", xp, "--cochain", up, "--chain", ap, "--support", zp)
    assert code == 1
    assert "not in the ambient complex" in err
