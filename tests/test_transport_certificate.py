"""The supported caps accept the class they transport to the support
only when the inclusion maps it back onto the cap class."""

import pytest

from capstar import chains
from capstar.bm import OpenSpaceModel, bm_supported_cap
from capstar.bridge import SimplicialChain, SimplicialCochain
from capstar.errors import InternalCheckError
from capstar.fixtures import circle, interval_pair
from capstar.products import relative_supported_cap, supported_cap


def _circle_instance():
    x = circle()
    z = x.subcomplex_closure([(1,)])
    u = SimplicialCochain(x, 1, {(1, 2): 1})
    alpha = SimplicialChain(x, 1, {(1, 2): 1, (2, 3): 1, (1, 3): -1})
    return x, x.subcomplex([(3,)]), z, u, alpha


def _interval_midpoint_cap():
    model = interval_pair()
    x = model.ambient
    u = SimplicialCochain(x, 1, {("a", "m"): 1})
    alpha = SimplicialChain(x, 1, {("a", "m"): 1, ("b", "m"): -1})
    return bm_supported_cap(model, x.subcomplex_closure([("m",)]), u, alpha)


CAPS = {
    "absolute": lambda x, y, z, u, a: supported_cap(x, z, u, a),
    "absolute-presubdivided": lambda x, y, z, u, a: supported_cap(x, z, u, a, presubdivide=1),
    "relative": lambda x, y, z, u, a: relative_supported_cap(x, y, z, u, a),
    "bm": lambda x, y, z, u, a: bm_supported_cap(OpenSpaceModel(x, y), z, u, a),
    "bm-interval": lambda *_: _interval_midpoint_cap(),
}


@pytest.mark.parametrize("name", CAPS)
def test_a_wrong_transported_class_is_rejected(monkeypatch, name):
    solve = chains.InducedMap.solve

    def off_by_one(self, target_class):
        cls = solve(self, target_class)
        return chains.HomologyClass(cls.group, tuple(c + 1 for c in cls.coords))

    monkeypatch.setattr(chains.InducedMap, "solve", off_by_one)
    with pytest.raises(InternalCheckError, match="failed to invert on the cap class"):
        CAPS[name](*_circle_instance())
