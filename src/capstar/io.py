"""JSON file formats for complexes, chains, and cochains.

Complex files carry maximal simplices (closure implied) and an optional
explicit vertex order; unknown keys are rejected so fixture typos fail
loudly.  Chain/cochain files map comma-joined increasing vertex tuples
to integer coefficients.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .bridge import SimplicialChain, SimplicialCochain
from .complexes import SimplicialComplex, _levels, from_maximal_simplices
from .errors import ValidationError

__all__ = [
    "parse_complex",
    "serialize_complex",
    "load_complex",
    "parse_cochain",
    "parse_chain",
    "serialize_cochain",
    "load_cochain",
    "load_chain",
]


def _check_keys(data: dict, allowed: set, what: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {what} file: {sorted(unknown)}")


_COMPLEX_KEYS = {"name", "simplices", "vertex_order"}


def _as_token(v, what: str):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValidationError(f"{what}: vertex tokens must be integers or strings, got {v!r}")
    if isinstance(v, str) and not v:
        raise ValidationError(f"{what}: vertex tokens must be nonempty")
    return v


def _check_tokens(tokens: list, what: str):
    """Raise for the first token that is not an int or a nonempty string;
    `_as_token` looks at each token only when one is not a plain int or str."""
    if not {int, str}.issuperset(map(type, tokens)) or "" in tokens:
        for v in tokens:
            _as_token(v, what)


def parse_complex(data: dict) -> SimplicialComplex:
    _check_keys(data, _COMPLEX_KEYS, "complex")
    if "name" not in data or not isinstance(data["name"], str):
        raise ValidationError("complex file needs a string 'name'")
    if "simplices" not in data or not isinstance(data["simplices"], list):
        raise ValidationError("complex file needs a list 'simplices'")
    simplices = data["simplices"]
    lists = all(map(isinstance, simplices, repeat(list))) and all(simplices)
    tokens = list(chain.from_iterable(simplices)) if lists else None
    if tokens is None or not {int, str}.issuperset(map(type, tokens)) or "" in tokens:
        for s in simplices:  # raise for the first bad entry or token, in file order
            if not isinstance(s, list) or not s:
                raise ValidationError(f"simplex entries must be nonempty lists, got {s!r}")
            _check_tokens(s, "simplices")
    order = None
    if "vertex_order" in data:
        order = data["vertex_order"]
        if not isinstance(order, list):
            raise ValidationError("vertex_order must be a list of tokens")
        _check_tokens(order, "vertex_order")
        missing = set(tokens).difference(order)
        if missing:
            raise ValidationError(f"vertex_order is missing tokens: {sorted(map(str, missing))}")
    return from_maximal_simplices(simplices, order=order, name=data["name"])


def serialize_complex(x: SimplicialComplex) -> str:
    try:
        levels = _levels(x.maximal_simplices(), x._rank)
    except KeyError as missing:
        x.rank_of(missing.args[0])
    payload = {
        "name": x.name,
        "simplices": [list(s) for level in levels for s in level],
        "vertex_order": list(x.vertex_order),
    }
    return json.dumps(payload, indent=2)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path} is not valid JSON: {e}")


def load_complex(path: str) -> SimplicialComplex:
    return parse_complex(_load_json(path))


_VALUED_KEYS = {"degree", "values"}


def _resolve_token(part: str, x: SimplicialComplex):
    if x.has_vertex(part):
        return part
    try:
        as_int = int(part)
    except ValueError:
        as_int = None
    if as_int is not None and x.has_vertex(as_int):
        return as_int
    raise ValidationError(f"unknown vertex token {part!r} in simplex key")


def _is_int(v) -> bool:
    # JSON true and false load as bools, which Python counts as ints
    return isinstance(v, int) and not isinstance(v, bool)


def _key_tokens(x: SimplicialComplex) -> dict:
    """Key text -> token, built once per complex: `str(v)` for int tokens,
    then str tokens, which win a clash as in `_resolve_token`."""
    return x._kept_as("tokens", lambda: {
        **{str(v): v for v in x.vertex_order if type(v) is int},
        **{v: v for v in x.vertex_order if type(v) is str}})


def _parse_valued(data: dict, x: SimplicialComplex, what: str):
    """The degree and the nonzero coefficients of a chain or cochain file,
    each key checked to name a simplex of `x` of that degree, once: the
    chain is built from them without a second check."""
    _check_keys(data, _VALUED_KEYS, what)
    if "degree" not in data or not _is_int(data["degree"]):
        raise ValidationError(f"{what} file needs an integer 'degree'")
    if "values" not in data or not isinstance(data["values"], dict):
        raise ValidationError(f"{what} file needs an object 'values'")
    degree = data["degree"]
    if degree < 0:
        raise ValidationError(f"{what} file has a negative degree {degree}")
    token, index, rank = _key_tokens(x).__getitem__, x._index, x._rank.__getitem__
    out = {}
    for key, coeff in data["values"].items():
        if type(coeff) is not int:
            if not _is_int(coeff):
                raise ValidationError(f"{what}: coefficient for {key!r} must be an integer")
            coeff = int(coeff)
        parts = key.split(",")
        try:
            simplex = tuple(map(token, parts))
        except KeyError:
            simplex = tuple(_resolve_token(p, x) for p in parts)
        if len(simplex) - 1 != degree:
            raise ValidationError(
                f"{what}: key {key!r} names a {len(simplex) - 1}-simplex, expected degree {degree}"
            )
        if simplex not in index:
            # the complex holds each simplex in increasing vertex order only
            if tuple(sorted(simplex, key=rank)) in index:
                raise ValidationError(f"{what}: key {key!r} is not in increasing vertex order")
            raise ValidationError(f"{what}: {key!r} is not a simplex of the complex")
        if simplex in out:
            raise ValidationError(f"{what}: {key!r} names the same simplex as an earlier key")
        out[simplex] = coeff
    if 0 in out.values():
        out = {s: c for s, c in out.items() if c}
    return degree, out


def parse_cochain(data: dict, x: SimplicialComplex) -> SimplicialCochain:
    return SimplicialCochain._trusted(x, *_parse_valued(data, x, "cochain"))


def parse_chain(data: dict, x: SimplicialComplex) -> SimplicialChain:
    return SimplicialChain._trusted(x, *_parse_valued(data, x, "chain"))


def serialize_cochain(u) -> str:
    x = u.complex
    items = sorted(u.coefficients.items(), key=lambda kv: x.sort_key(kv[0]))
    payload = {
        "degree": u.degree,
        "values": {",".join(str(v) for v in s): c for s, c in items},
    }
    return json.dumps(payload, indent=2)


def load_cochain(path: str, x: SimplicialComplex) -> SimplicialCochain:
    return parse_cochain(_load_json(path), x)


def load_chain(path: str, x: SimplicialComplex) -> SimplicialChain:
    return parse_chain(_load_json(path), x)
