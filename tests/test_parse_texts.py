"""The input layer's error texts and key resolution, pinned exactly.

Each bad file raises ValidationError with the whole message given here
(anchored at both ends), so a faster parser cannot drift from the texts
users see on the command line."""

import re

import pytest

from capstar.complexes import default_token_order, from_maximal_simplices
from capstar.errors import ValidationError
from capstar.fixtures import circle
from capstar.io import parse_chain, parse_cochain, parse_complex


def exactly(text: str) -> str:
    return "^" + re.escape(text) + "$"


COMPLEX_CASES = [
    ("non-list entry", {"simplices": [[1, 2], 5]},
     "simplex entries must be nonempty lists, got 5"),
    ("empty simplex", {"simplices": [[1, 2], []]},
     "simplex entries must be nonempty lists, got []"),
    ("bool token", {"simplices": [[1, True]]},
     "simplices: vertex tokens must be integers or strings, got True"),
    ("float token", {"simplices": [[1, 2.0]]},
     "simplices: vertex tokens must be integers or strings, got 2.0"),
    ("None token", {"simplices": [[1, None]]},
     "simplices: vertex tokens must be integers or strings, got None"),
    ("list token", {"simplices": [[1, [2]]]},
     "simplices: vertex tokens must be integers or strings, got [2]"),
    ("empty string token", {"simplices": [[1, ""]]},
     "simplices: vertex tokens must be nonempty"),
    ("first bad token in file order", {"simplices": [[1, 2, 1.5, None]]},
     "simplices: vertex tokens must be integers or strings, got 1.5"),
    ("bad token before a later non-list entry", {"simplices": [[1, True], 5]},
     "simplices: vertex tokens must be integers or strings, got True"),
    ("non-list entry before a later bad token", {"simplices": [5, [1, True]]},
     "simplex entries must be nonempty lists, got 5"),
    ("non-list vertex_order", {"simplices": [[1, 2]], "vertex_order": "12"},
     "vertex_order must be a list of tokens"),
    ("bad token in vertex_order", {"simplices": [[1, 2]], "vertex_order": [1, 2, False]},
     "vertex_order: vertex tokens must be integers or strings, got False"),
    ("vertex_order missing tokens",
     {"simplices": [[1, 2], [2, "a"]], "vertex_order": [1]},
     "vertex_order is missing tokens: ['2', 'a']"),
    ("duplicate token in vertex_order", {"simplices": [[1, 2]], "vertex_order": [1, 2, 1]},
     "duplicate vertex token in vertex order"),
    ("duplicate vertex within a simplex", {"simplices": [[1, 2], [3, 1, 3]]},
     "duplicate vertex 3 within one simplex"),
    ("duplicate vertex before an unknown one",
     {"simplices": [[3, 1, 3, 9]], "vertex_order": [1, 2, 3, 9]},
     "duplicate vertex 3 within one simplex"),
    ("first bad simplex in file order across lengths", {"simplices": [[1, 2, 3], [4, 4], [5, 5, 6]]},
     "duplicate vertex 4 within one simplex"),
]


@pytest.mark.parametrize("data, text", [c[1:] for c in COMPLEX_CASES],
                         ids=[c[0] for c in COMPLEX_CASES])
def test_complex_file_error_texts(data, text):
    with pytest.raises(ValidationError, match=exactly(text)):
        parse_complex({"name": "bad", **data})


# The API gives a complex file's texts in the file's order of precedence:
# bad entries and tokens of the simplices, then of the order, then tokens
# missing from the order, a repeated order token and a repeated vertex.
# So the missing 9 is named in "duplicate before unknown", and the empty
# entry in "duplicate before empty".
@pytest.mark.parametrize("maximal, order, text", [
    ([(1, 2), ()], None, "simplex entries must be nonempty lists, got ()"),
    ([(1, 2), (2, 9)], (1, 2), "vertex_order is missing tokens: ['9']"),
    ([(1, 2), (2, 2, 9)], (1, 2), "vertex_order is missing tokens: ['9']"),
    ([(1, 2.5)], None, "simplices: vertex tokens must be integers or strings, got 2.5"),
    ([(1, 2)], (1, 2, 2), "duplicate vertex token in vertex order"),
    ([[1, 2, 3], [9, 1], [1, 1, 2]], [1, 2, 3], "vertex_order is missing tokens: ['9']"),
    ([[1, 1, 2], []], None, "simplex entries must be nonempty lists, got []"),
    ([[], [1, 1]], None, "simplex entries must be nonempty lists, got []"),
    # True and False equal 1 and 0 as keys: refused, never read as those vertices
    ([(1, 2), (True, 3)], None, "simplices: vertex tokens must be integers or strings, got True"),
    ([(True, 2)], None, "simplices: vertex tokens must be integers or strings, got True"),
    ([(1, 2)], (1, 2, True), "vertex_order: vertex tokens must be integers or strings, got True"),
    ([(1, 2), (True, 2)], (1, 2),
     "simplices: vertex tokens must be integers or strings, got True"),
    ([(0, 2), (False, 2)], (False, 0, 2),
     "simplices: vertex tokens must be integers or strings, got False"),
], ids=["empty", "unknown vertex", "duplicate before unknown", "float token", "duplicate order",
        "unknown before a longer duplicate", "duplicate before empty", "empty before duplicate",
        "bool token after its int", "bool token", "bool in the order",
        "bool token with a bool-free order", "bool first in the order"])
def test_from_maximal_simplices_error_texts(maximal, order, text):
    with pytest.raises(ValidationError, match=exactly(text)):
        from_maximal_simplices(maximal, order=order)


def test_default_token_order_refuses_a_bool():
    with pytest.raises(ValidationError, match=exactly(
            "simplices: vertex tokens must be integers or strings, got True")):
        default_token_order({True, 2})


VALUED_CASES = [
    ("bool coefficient", 1, {"1,2": True}, "{what}: coefficient for '1,2' must be an integer"),
    ("float coefficient", 1, {"1,2": 1.0}, "{what}: coefficient for '1,2' must be an integer"),
    ("unknown token", 1, {"1,9": 1}, "unknown vertex token '9' in simplex key"),
    ("wrong degree", 0, {"1,2": 1}, "{what}: key '1,2' names a 1-simplex, expected degree 0"),
    ("same simplex twice", 1, {"1,2": 1, "01,2": 5},
     "{what}: '01,2' names the same simplex as an earlier key"),
    ("repeated vertex", 1, {"1,1": 1}, "{what}: '1,1' is not a simplex of the complex"),
]


@pytest.mark.parametrize("parse, what", [(parse_chain, "chain"), (parse_cochain, "cochain")])
@pytest.mark.parametrize("degree, values, text", [c[1:] for c in VALUED_CASES],
                         ids=[c[0] for c in VALUED_CASES])
def test_chain_and_cochain_file_error_texts(parse, what, degree, values, text):
    with pytest.raises(ValidationError, match=exactly(text.format(what=what))):
        parse({"degree": degree, "values": values}, circle())


@pytest.mark.parametrize("parse, what", [(parse_chain, "chain"), (parse_cochain, "cochain")])
def test_key_naming_no_simplex_in_any_order(parse, what):
    path = parse_complex({"name": "path", "simplices": [[1, 2], [2, 3]]})
    for key in ("1,3", "3,1"):
        with pytest.raises(ValidationError,
                           match=exactly(f"{what}: {key!r} is not a simplex of the complex")):
            parse({"degree": 1, "values": {key: 1}}, path)


# -- key resolution ------------------------------------------------------


@pytest.mark.parametrize("part", [" 5", "+5", "05", "5"])
def test_int_token_named_by_any_int_spelling(part):
    x = parse_complex({"name": "x", "simplices": [[5, 7]]})
    u = parse_cochain({"degree": 1, "values": {f"{part},7": 2}}, x)
    assert u.values == {(5, 7): 2}
    assert type(next(iter(u.values))[0]) is int


def test_str_token_wins_over_int_token_of_the_same_text():
    x = parse_complex({"name": "x", "simplices": [["5", 6], [5, 6]],
                       "vertex_order": [5, 6, "5"]})
    assert parse_cochain({"degree": 0, "values": {"5": 1}}, x).values == {("5",): 1}
    # only an int spelling that is not the str token's text reaches the int
    assert parse_cochain({"degree": 0, "values": {"05": 1}}, x).values == {(5,): 1}
    assert parse_chain({"degree": 1, "values": {"6,5": 1}}, x).values == {(6, "5"): 1}


def test_token_listed_only_in_vertex_order():
    x = parse_complex({"name": "x", "simplices": [[1, 2]], "vertex_order": [1, "lone", 2]})
    assert x.vertex_order == (1, "lone", 2)
    assert x.simplices_by_dim == (((1,), (2,)), ((1, 2),))
    # the token resolves, but names no simplex
    with pytest.raises(ValidationError,
                       match=exactly("cochain: 'lone' is not a simplex of the complex")):
        parse_cochain({"degree": 0, "values": {"lone": 1}}, x)
    with pytest.raises(ValidationError,
                       match=exactly("unknown vertex token 'gone' in simplex key")):
        parse_cochain({"degree": 0, "values": {"gone": 1}}, x)


def test_chain_coefficients_keep_the_file_key_order():
    x = circle()
    keys = ["2,3", "1,3", "1,2"]
    alpha = parse_chain({"degree": 1, "values": {k: i + 1 for i, k in enumerate(keys)}}, x)
    assert list(alpha.coefficients) == [(2, 3), (1, 3), (1, 2)]
    assert list(alpha.coefficients.values()) == [1, 2, 3]
