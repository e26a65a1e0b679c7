import json
import re
import subprocess
import sys

import pytest

from capstar.complexes import barycentric_subdivide
from capstar.errors import ValidationError
from capstar.fixtures import circle, interval_pair, projective_plane, torus
from capstar.io import (
    load_chain,
    load_cochain,
    load_complex,
    parse_complex,
    parse_cochain,
    serialize_complex,
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "capstar", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def write_complex(tmp_path, x, name="complex.json"):
    p = tmp_path / name
    p.write_text(serialize_complex(x))
    return str(p)


def write_json(tmp_path, payload, name):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


# -- file format ---------------------------------------------------------


def test_loaders_share_their_read_errors(tmp_path):
    x = circle()
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    missing = str(tmp_path / "missing.json")
    loaders = [load_complex, lambda p: load_cochain(p, x), lambda p: load_chain(p, x)]
    for load in loaders:
        with pytest.raises(ValidationError, match=f"^cannot read {re.escape(missing)}: "):
            load(missing)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(bad))} is not valid JSON: "):
            load(str(bad))


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        parse_complex({"name": "x", "simplices": [], "extra": 1})


def test_parse_requires_name():
    with pytest.raises(ValidationError):
        parse_complex({"simplices": [[1, 2]]})


def test_parse_duplicate_vertex():
    with pytest.raises(ValidationError):
        parse_complex({"name": "bad", "simplices": [[1, 1]]})


def test_empty_complex_is_valid():
    x = parse_complex({"name": "empty", "simplices": []})
    assert x.num_simplices() == 0


def test_round_trip_preserves_complex():
    for x in (circle(), torus(), projective_plane()):
        again = parse_complex(json.loads(serialize_complex(x)))
        assert again == x


def test_subdivision_serialization_round_trip():
    x = torus()
    sd = barycentric_subdivide(x).complex
    again = parse_complex(json.loads(serialize_complex(sd)))
    assert again == sd


def test_mixed_tokens_default_order():
    x = parse_complex({"name": "mix", "simplices": [[10, 2], ["b", 2], ["a", "b"]]})
    assert x.vertex_order == (2, 10, "a", "b")


def test_cochain_keys_resolve_integer_tokens():
    x = circle()
    u = parse_cochain({"degree": 1, "values": {"1,2": 3}}, x)
    assert u.values == {(1, 2): 3}


def test_cochain_key_order_enforced():
    x = circle()
    with pytest.raises(ValidationError, match="increasing vertex order"):
        parse_cochain({"degree": 1, "values": {"2,1": 3}}, x)


def test_cochain_wrong_degree_rejected():
    x = circle()
    with pytest.raises(ValidationError):
        parse_cochain({"degree": 0, "values": {"1,2": 3}}, x)


def test_cochain_unknown_keys_rejected():
    x = circle()
    with pytest.raises(ValidationError):
        parse_cochain({"degree": 1, "values": {}, "label": "x"}, x)


# -- CLI -------------------------------------------------------------------


def test_cli_validate_counts(tmp_path):
    path = write_complex(tmp_path, circle())
    code, out, _ = run_cli("validate", path)
    assert code == 0
    assert "dim 0: 3" in out and "dim 1: 3" in out


def test_cli_validate_rejects_duplicates(tmp_path):
    path = write_json(tmp_path, {"name": "bad", "simplices": [[1, 1, 2]]}, "bad.json")
    code, _, err = run_cli("validate", path)
    assert code == 1
    assert "error" in err


def test_cli_validate_empty(tmp_path):
    path = write_json(tmp_path, {"name": "empty", "simplices": []}, "empty.json")
    code, out, _ = run_cli("validate", path)
    assert code == 0


def test_cli_homology_rp2(tmp_path):
    path = write_complex(tmp_path, projective_plane())
    code, out, _ = run_cli("homology", path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["H_0 = Z^1", "H_1 = Z/2", "H_2 = 0"]


def test_cli_homology_torus(tmp_path):
    path = write_complex(tmp_path, torus())
    code, out, _ = run_cli("homology", path)
    assert code == 0
    assert "H_1 = Z^2" in out


def test_cli_homology_relative_and_bm(tmp_path):
    model = interval_pair()
    xp = write_complex(tmp_path, model.ambient, "x.json")
    yp = write_json(
        tmp_path,
        {"name": "ends", "simplices": [["a"], ["b"]]},
        "y.json",
    )
    code, out, _ = run_cli("homology", xp, "--rel", yp)
    assert code == 0
    assert "H_1 = Z^1" in out
    code, out, _ = run_cli("homology", xp, "--rel", yp, "--bm")
    assert code == 0
    assert "H^BM_1 = Z^1" in out


def test_cli_cup(tmp_path):
    from capstar.complexes import from_maximal_simplices

    x = from_maximal_simplices([[1, 2, 3]], name="full")
    xp = write_complex(tmp_path, x)
    up = write_json(tmp_path, {"degree": 1, "values": {"1,2": 1}}, "u.json")
    vp = write_json(tmp_path, {"degree": 1, "values": {"2,3": 1}}, "v.json")
    code, out, _ = run_cli("cup", xp, "--u", up, "--v", vp)
    assert code == 0
    assert json.loads(out) == {"degree": 2, "values": {"1,2,3": 1}}


def test_cli_cap_supported(tmp_path):
    xp = write_complex(tmp_path, circle())
    up = write_json(tmp_path, {"degree": 1, "values": {"1,2": 1}}, "u.json")
    ap = write_json(
        tmp_path, {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}}, "a.json"
    )
    zp = write_json(tmp_path, {"name": "z", "simplices": [[1]]}, "z.json")
    code, out, _ = run_cli("cap", xp, "--cochain", up, "--chain", ap, "--support", zp)
    assert code == 0
    assert "chain: [2]" in out
    assert "class: 1*g0 in H_0(Z) = Z^1" in out


def test_cli_cap_zero_cochain(tmp_path):
    xp = write_complex(tmp_path, circle())
    up = write_json(tmp_path, {"degree": 1, "values": {}}, "u.json")
    ap = write_json(
        tmp_path, {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}}, "a.json"
    )
    code, out, _ = run_cli("cap", xp, "--cochain", up, "--chain", ap)
    assert code == 0
    assert "chain: 0" in out


def test_cli_cap_degree_error_exits_one(tmp_path):
    xp = write_complex(tmp_path, circle())
    up = write_json(tmp_path, {"degree": 1, "values": {"1,2": 1}}, "u.json")
    ap = write_json(tmp_path, {"degree": 0, "values": {"1": 1}}, "a.json")
    code, _, err = run_cli("cap", xp, "--cochain", up, "--chain", ap)
    assert code == 1


@pytest.mark.parametrize("bad", [
    {"degree": True, "values": {"1,2": 1}},
    {"degree": 1, "values": {"1,2": True}},
], ids=["boolean-degree", "boolean-coefficient"])
def test_cli_rejects_json_booleans(tmp_path, bad):
    # true is not the integer 1 in a chain or cochain file
    xp = write_complex(tmp_path, circle())
    up = write_json(tmp_path, bad, "u.json")
    vp = write_json(tmp_path, {"degree": 0, "values": {"1": 1}}, "v.json")
    ap = write_json(
        tmp_path, {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}}, "a.json"
    )
    for args in (("cap", xp, "--cochain", up, "--chain", ap),
                 ("cap", xp, "--cochain", vp, "--chain", up),
                 ("cup", xp, "--u", up, "--v", vp)):
        code, _, err = run_cli(*args)
        assert code == 1, args
        assert "must be an integer" in err or "needs an integer 'degree'" in err


def test_cli_rejects_a_simplex_named_twice(tmp_path):
    # "01,2" resolves to the same edge as "1,2"; neither value may win silently
    xp = write_complex(tmp_path, circle())
    up = write_json(tmp_path, {"degree": 1, "values": {"1,2": 1, "01,2": 5}}, "u.json")
    vp = write_json(tmp_path, {"degree": 0, "values": {"1": 1}}, "v.json")
    ap = write_json(
        tmp_path, {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}}, "a.json"
    )
    for args in (("cap", xp, "--cochain", up, "--chain", ap), ("cup", xp, "--u", up, "--v", vp)):
        code, _, err = run_cli(*args)
        assert code == 1, args
        assert "'01,2' names the same simplex as an earlier key" in err


def test_cli_rejects_a_permuted_chain_key(tmp_path):
    # "1,3,0" lists the triangle's vertices out of order: say so, rather
    # than that the triangle is missing
    xp = write_complex(tmp_path, torus())
    up = write_json(tmp_path, {"degree": 0, "values": {"1": 1}}, "u.json")
    ap = write_json(tmp_path, {"degree": 2, "values": {"0,1,3": 1, "1,3,0": 1}}, "a.json")
    code, out, err = run_cli("cap", xp, "--cochain", up, "--chain", ap)
    assert code == 1
    assert out == ""
    assert err.strip() == "error: chain: key '1,3,0' is not in increasing vertex order"


def test_cli_cap_relative_interval(tmp_path):
    model = interval_pair()
    xp = write_complex(tmp_path, model.ambient, "x.json")
    yp = write_json(tmp_path, {"name": "ends", "simplices": [["a"], ["b"]]}, "y.json")
    zp = write_json(tmp_path, {"name": "mid", "simplices": [["m"]]}, "z.json")
    up = write_json(tmp_path, {"degree": 1, "values": {"a,m": 1}}, "u.json")
    ap = write_json(tmp_path, {"degree": 1, "values": {"a,m": 1, "b,m": -1}}, "a.json")
    code, out, _ = run_cli(
        "cap", xp, "--cochain", up, "--chain", ap, "--support", zp, "--rel", yp
    )
    assert code == 0
    assert "chain: [m]" in out
    assert "class: 1*g0 in H_0(Z,Z&Y) = Z^1" in out


def test_cli_cap_presubdivide_flag(tmp_path):
    xp = write_complex(tmp_path, circle())
    up = write_json(tmp_path, {"degree": 1, "values": {"1,2": 1}}, "u.json")
    ap = write_json(
        tmp_path, {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}}, "a.json"
    )
    zp = write_json(tmp_path, {"name": "z", "simplices": [[1]]}, "z.json")
    code, out, _ = run_cli(
        "cap", xp, "--cochain", up, "--chain", ap, "--support", zp,
        "--presubdivide", "1",
    )
    assert code == 0
    assert "class: 1*g0 in H_0(Z) = Z^1" in out


def test_cli_cap_retract_failure_hints_presubdivide(tmp_path):
    xp = write_complex(tmp_path, circle())
    up = write_json(
        tmp_path, {"degree": 0, "values": {"1": 1, "2": 1, "3": 1}}, "u.json"
    )
    ap = write_json(
        tmp_path, {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}}, "a.json"
    )
    zp = write_json(tmp_path, {"name": "z", "simplices": [[1], [2], [3]]}, "z.json")
    code, _, err = run_cli("cap", xp, "--cochain", up, "--chain", ap, "--support", zp)
    assert code == 1
    assert "presubdivide" in err


def test_cli_subdivide_round_trip(tmp_path):
    xp = write_complex(tmp_path, circle())
    code, out, _ = run_cli("subdivide", xp, "--times", "1")
    assert code == 0
    reparsed = parse_complex(json.loads(out))
    assert reparsed == barycentric_subdivide(circle()).complex


def test_cli_subdivide_times_zero_is_identity(tmp_path):
    xp = write_complex(tmp_path, circle())
    code, out, _ = run_cli("subdivide", xp, "--times", "0")
    assert code == 0
    assert parse_complex(json.loads(out)) == circle()


def test_cli_subdivide_empty(tmp_path):
    xp = write_json(tmp_path, {"name": "empty", "simplices": []}, "e.json")
    code, out, _ = run_cli("subdivide", xp)
    assert code == 0
    assert json.loads(out)["simplices"] == []


def test_cli_verify_passes_and_is_deterministic(tmp_path):
    xp = write_complex(tmp_path, circle())
    code1, out1, _ = run_cli("verify", xp, "--trials", "25", "--seed", "1")
    code2, out2, _ = run_cli("verify", xp, "--trials", "25", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert all(line.startswith("PASS") for line in out1.strip().splitlines())
    names = [line.split()[1] for line in out1.strip().splitlines()]
    assert names == sorted(names)


def test_cli_verify_empty_complex_vacuous(tmp_path):
    xp = write_json(tmp_path, {"name": "empty", "simplices": []}, "e.json")
    code, out, _ = run_cli("verify", xp, "--trials", "5", "--seed", "0")
    assert code == 0


def test_verify_corruption_hook_fails():
    from capstar.fixtures import sphere
    from capstar.verify import run_suite

    # needs a 2-complex: only there does d o d have a nontrivial composite
    results = run_suite(sphere(), trials=5, seed=0, _corrupt="boundary")
    by_name = {r.name: r.passed for r in results}
    assert by_name["boundary-squares-to-zero"] is False
