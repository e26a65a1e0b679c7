"""One vertex-token rule for files and for the API: each simplex entry is a
nonempty list or tuple, and each token is exactly an int or a nonempty str.
`from_maximal_simplices` refuses everything else with the text a complex
file gets, with or without `order`, so whatever the API builds is a complex
whose file reads back to it.  Chain and cochain keys written by
`serialize_cochain` read back to the same simplices, and a refused
subcomplex names the same offender under every hash seed."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capstar.bridge import SimplicialCochain
from capstar.complexes import default_token_order, from_maximal_simplices
from capstar.errors import ValidationError
from capstar.io import parse_cochain, parse_complex, serialize_cochain, serialize_complex
from test_closure_reference import assert_same_complex, complex_files

BAD_TOKENS = [2.0, np.int64(2), [2], "", True, None]
BAD_ENTRIES = [5, "ab", [], ()]


def token_text(what, v):
    if v == "":
        return f"{what}: vertex tokens must be nonempty"
    return f"{what}: vertex tokens must be integers or strings, got {v!r}"


@pytest.mark.parametrize("order", [None, (1, 2)], ids=["no order", "order"])
@pytest.mark.parametrize("bad", BAD_TOKENS, ids=repr)
def test_a_bad_token_is_refused_with_the_file_text(bad, order):
    with pytest.raises(ValidationError) as refused:
        from_maximal_simplices([(1, bad)], order=order)
    assert str(refused.value) == token_text("simplices", bad)
    with pytest.raises(ValidationError) as refused:
        from_maximal_simplices([(1, 2)], order=(1, 2, bad))
    assert str(refused.value) == token_text("vertex_order", bad)


@pytest.mark.parametrize("order", [None, (1, 2)], ids=["no order", "order"])
@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_a_bad_entry_is_refused_with_the_file_text(bad, order):
    with pytest.raises(ValidationError) as refused:
        from_maximal_simplices([[1, 2], bad], order=order)
    assert str(refused.value) == f"simplex entries must be nonempty lists, got {bad!r}"


def test_default_token_order_reads_an_iterator_once():
    assert default_token_order(iter([3, "a", 1, "-1"])) == (1, 3, "-1", "a")
    with pytest.raises(ValidationError) as refused:
        default_token_order(t for t in [1, 2.0])
    assert str(refused.value) == token_text("simplices", 2.0)


@pytest.mark.parametrize("maximal, order", [
    ([[1, 2.0]], None), ([[1, 2]], [1, 2.0]), ([[1, [2]]], None), ([[1, ""]], None),
    ([[1, 2], 5], None), ([[1, 2], [2, 9]], [1, 2]), ([[1, 2], [1, 1]], None),
])
def test_the_api_and_the_file_give_one_text(maximal, order):
    with pytest.raises(ValidationError) as api:
        from_maximal_simplices(maximal, order=order)
    data = {"name": "x", "simplices": maximal, **({} if order is None else {"vertex_order": order})}
    with pytest.raises(ValidationError) as file:
        parse_complex(data)
    assert str(api.value) == str(file.value)


@st.composite
def api_inputs(draw):
    """A complex file's simplices and order, as `test_closure_reference`
    draws them, and where a bad token or entry is planted, if anywhere."""
    data = draw(complex_files())
    maximal = [list(s) for s in data["simplices"]]
    order = data.get("vertex_order")
    order = None if order is None else list(order)
    where = draw(st.sampled_from(["nowhere", "token", "entry", "order"]))
    if where == "token" and maximal:
        s = draw(st.sampled_from(maximal))
        s[draw(st.integers(0, len(s) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    elif where == "entry":
        maximal.insert(draw(st.integers(0, len(maximal))), draw(st.sampled_from(BAD_ENTRIES)))
    elif where == "order" and order is not None:
        order.insert(draw(st.integers(0, len(order))), draw(st.sampled_from(BAD_TOKENS)))
    else:
        where = "nowhere"
    return maximal, order, where


@given(api_inputs())
def test_every_complex_the_api_accepts_reads_back_from_its_file(drawn):
    maximal, order, planted = drawn
    try:
        x = from_maximal_simplices(maximal, order=order, name="drawn")
    except ValidationError:
        assert planted != "nowhere", "a good input was refused"
        return
    assert planted == "nowhere", f"a bad {planted} was accepted"
    assert_same_complex(parse_complex(json.loads(serialize_complex(x))), x)


# -- keys that read back -------------------------------------------------


def _reads_back(x, degree, values):
    u = SimplicialCochain(x, degree, values)
    written = json.loads(serialize_cochain(u))
    back = parse_cochain(written, x)
    assert back.values == values
    assert [[type(v) for v in s] for s in back.values] == [[type(v) for v in s] for s in values]
    return written["values"]


def test_an_int_token_whose_text_is_a_str_token_reads_back():
    x = parse_complex({"name": "x", "simplices": [["5", 6], [5, 6]], "vertex_order": ["5", 5, 6]})
    assert _reads_back(x, 1, {(5, 6): 3}) == {"05,6": 3}
    assert _reads_back(x, 1, {("5", 6): 1, (5, 6): 2}) == {"5,6": 1, "05,6": 2}
    assert _reads_back(x, 0, {("5",): 1, (5,): 2, (6,): 3}) == {"5": 1, "05": 2, "6": 3}
    # a key mixing a str token's text with another spelling of an int token
    assert parse_cochain({"degree": 1, "values": {"5,06": 1}}, x).values == {("5", 6): 1}


def test_zeros_go_after_the_sign_until_the_text_is_free():
    x = from_maximal_simplices([["-5", "-05", -5, "7", "07", 7]])
    assert _reads_back(x, 1, {(-5, 7): 4}) == {"-005,007": 4}
    assert _reads_back(x, 0, {(-5,): 1, ("-5",): 2, ("-05",): 3}) == {"-005": 1, "-5": 2, "-05": 3}


def test_a_comma_token_is_refused_when_written():
    x = from_maximal_simplices([["a,b", "c"]])
    assert _reads_back(x, 0, {("c",): 1}) == {"c": 1}
    with pytest.raises(ValidationError, match="^vertex token 'a,b' contains ','"):
        serialize_cochain(SimplicialCochain(x, 1, {("a,b", "c"): 1}))


def test_cli_cup_writes_keys_that_read_back(tmp_path):
    x = {"name": "x", "simplices": [["5", 6], [5, 6]], "vertex_order": ["5", 5, 6]}
    files = {"x": x, "u": {"degree": 0, "values": {"5": 1, "05": 1}},
             "v": {"degree": 1, "values": {"5,6": 3, "05,6": 4}}}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    out = subprocess.run(
        [sys.executable, "-m", "capstar", "cup", str(tmp_path / "x.json"),
         "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json")],
        capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"degree": 1, "values": {"5,6": 3, "05,6": 4}}
    assert parse_cochain(json.loads(out), parse_complex(x)).values == {("5", 6): 3, (5, 6): 4}


# -- the same refusal on every run ---------------------------------------

SUBCOMPLEX_SCRIPT = """
from capstar.complexes import default_token_order, from_maximal_simplices
from capstar.errors import ValidationError
x = from_maximal_simplices([("a", "b", "c"), ("c", "d", "e")])
for given in ([("a", "b", "c"), ("c", "d", "e")], [("c", "d", "e"), ("b", "z"), ("a", "y")]):
    try:
        x.subcomplex(given)
    except ValidationError as e:
        print(e)
"""


def test_a_refused_subcomplex_names_one_offender_under_every_hash_seed(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        outputs.append(subprocess.run([sys.executable, "-c", SUBCOMPLEX_SCRIPT], env=env,
                                      capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1] == (
        "subcomplex not face-closed: missing ('a',) under ('a', 'b', 'c')\n"
        "simplex ('a', 'y') not in parent complex\n")
