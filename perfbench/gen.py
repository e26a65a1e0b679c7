"""Seeded inputs for the benchmark, built without capstar.

The built-in fixtures are restated here as plain maximal-simplex lists,
so the workloads stay fixed even if the library's own fixtures change.
Barycentric subdivision, face closure and the orientation of a surface
(its fundamental class) are computed with this module's own code; the
library only ever sees the generated JSON.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations


# -- fixtures ----------------------------------------------------------


def _torus7():
    faces = []
    for i in range(7):
        faces.append([i, (i + 1) % 7, (i + 3) % 7])
        faces.append([i, (i + 2) % 7, (i + 3) % 7])
    return faces


def _klein():
    n = 4

    def vid(i, j):
        if i == n:
            i, j = 0, (n - j) % n
        return (i % n) * n + (j % n)

    faces = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append([a, b, c])
            faces.append([a, c, d])
    return faces


def _cylinder():
    bottom, top = ["a0", "b0", "c0"], ["a1", "b1", "c1"]
    faces, rim = [], []
    for i in range(3):
        p, q = bottom[i], bottom[(i + 1) % 3]
        pp, qq = top[i], top[(i + 1) % 3]
        faces += [[p, q, qq], [p, qq, pp]]
        rim += [[p, q], [pp, qq]]
    return faces, rim


SURFACES = {
    "circle": [[1, 2], [2, 3], [1, 3]],
    "sphere": [list(c) for c in combinations([1, 2, 3, 4], 3)],
    "torus7": _torus7(),
    "rp2": [[1, 2, 4], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 5, 6],
            [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6]],
    "klein": _klein(),
    "moebius": [[1, 2, 3], [2, 3, 4], [3, 4, 5], [1, 4, 5], [1, 2, 5]],
}

# (ambient maximal simplices, boundary maximal simplices): compact models
# of R, R^2, R^3 and the open cylinder S^1 x R.
PAIRS = {
    "interval": ([["a", "m"], ["m", "b"]], [["a"], ["b"]]),
    "disk2": ([[1, 2, 3]], [list(c) for c in combinations([1, 2, 3], 2)]),
    "disk3": ([[1, 2, 3, 4]], [list(c) for c in combinations([1, 2, 3, 4], 3)]),
    "cylinder": _cylinder(),
}

# Textbook integral homology: per degree, (betti, torsion orders).  For
# a pair (X, Y) it is H(X, Y), the Borel-Moore homology of X - Y.
HOMOLOGY = {
    "circle": [(1, ()), (1, ())],
    "sphere": [(1, ()), (0, ()), (1, ())],
    "torus7": [(1, ()), (2, ()), (1, ())],
    "rp2": [(1, ()), (0, (2,)), (0, ())],
    "klein": [(1, ()), (1, (2,)), (0, ())],
    "moebius": [(1, ()), (1, ()), (0, ())],
    "interval": [(0, ()), (1, ())],
    "disk2": [(0, ()), (0, ()), (1, ())],
    "disk3": [(0, ()), (0, ()), (0, ()), (1, ())],
    "cylinder": [(0, ()), (1, ()), (1, ())],
}


def default_order(maximal) -> list:
    """Integers numerically, then strings lexicographically."""
    tokens = {v for s in maximal for v in s}
    return (sorted(t for t in tokens if isinstance(t, int))
            + sorted(t for t in tokens if isinstance(t, str)))


# -- combinatorics -------------------------------------------------------


class Complex:
    """A face-closed complex over integer tokens whose order is their
    position in `order`.  Simplices are increasing tuples."""

    def __init__(self, maximal, order):
        self.order = list(order)
        self.rank = {v: i for i, v in enumerate(self.order)}
        closed = set()
        for s in maximal:
            s = tuple(sorted(s, key=self.rank.__getitem__))
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        by_dim = {}
        for s in closed:
            by_dim.setdefault(len(s) - 1, []).append(s)
        self.levels = [sorted(by_dim[d], key=self.key) for d in range(len(by_dim))]
        self.maximal = [tuple(sorted(s, key=self.rank.__getitem__)) for s in maximal]

    def key(self, s):
        return tuple(self.rank[v] for v in s)

    @property
    def dimension(self) -> int:
        return len(self.levels) - 1

    def f_vector(self) -> list:
        return [len(level) for level in self.levels]

    def top(self) -> list:
        return self.levels[-1]

    def json(self, name: str) -> dict:
        return {"name": name, "simplices": [list(s) for s in self.maximal],
                "vertex_order": list(self.order)}


def subdivide(x: Complex, labels: "Labels", inner: list | None = None):
    """Barycentric subdivision, its vertices (the faces of `x`) taking
    fresh tokens from `labels` and ordered by dimension, then by `x`'s
    order.  Returns the subdivided complex and, for an `inner` list of
    maximal simplices of a subcomplex, its subdivision's maximal
    simplices."""
    faces = [s for level in x.levels for s in level]
    token = dict(zip(faces, labels.block(len(faces))))

    def flags(maximal):
        out = []
        for s in maximal:
            for perm in permutations(s):
                out.append([token[tuple(sorted(perm[:k], key=x.rank.__getitem__))]
                            for k in range(1, len(s) + 1)])
        return out

    sd = Complex(flags(x.maximal), [token[s] for s in faces])
    return sd, (flags(inner) if inner is not None else None)


def orient(x: Complex) -> dict:
    """Coefficients +-1 on the top simplices of a connected orientable
    pseudomanifold, possibly with boundary, so that their boundary
    cancels on every codimension-one face shared by two of them."""
    cofaces = {}
    for t in x.top():
        for i in range(len(t)):
            cofaces.setdefault(t[:i] + t[i + 1:], []).append((t, (-1) ** i))
    top = x.top()
    sign = {top[0]: 1}
    todo = [top[0]]
    while todo:
        t = todo.pop()
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            for other, s in cofaces[face]:
                if other == t:
                    continue
                want = -sign[t] * (-1) ** i * s
                if other not in sign:
                    sign[other] = want
                    todo.append(other)
                elif sign[other] != want:
                    raise ValueError("complex is not orientable")
    if len(sign) != len(top):
        raise ValueError("complex is not connected")
    return sign


def boundary(chain: dict) -> dict:
    out = {}
    for s, c in chain.items():
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            out[face] = out.get(face, 0) + c * (-1) ** i
    return {s: c for s, c in out.items() if c}


# -- front-face / back-face evaluation ------------------------------------


def cup(x: Complex, u: dict, p: int, v: dict, q: int) -> dict:
    out = {}
    if p + q <= x.dimension:
        for s in x.levels[p + q]:
            val = u.get(s[:p + 1], 0) * v.get(s[p:], 0)
            if val:
                out[s] = val
    return out


def cap(alpha: dict, u: dict, p: int) -> dict:
    out = {}
    for s, c in alpha.items():
        val = c * u.get(s[:p + 1], 0)
        if val:
            out[s[p:]] = out.get(s[p:], 0) + val
    return {s: c for s, c in out.items() if c}


# -- seeded relabelling and JSON ---------------------------------------------


class Labels:
    """Hands out disjoint blocks of fresh integer tokens, so complexes
    relabelled from one `Labels` never share a vertex token."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.next = rng.randrange(1, 1 << 20) * 1000

    def block(self, n: int) -> list:
        start = self.next
        self.next += n + self.rng.randrange(1, 1000)
        tokens = list(range(start, start + n))
        self.rng.shuffle(tokens)
        return tokens


def relabel(maximal, labels: Labels, inner=None):
    """Rename the vertices with fresh tokens, keeping the vertex order
    (so the work is the same for every relabelling).  Returns the
    relabelled Complex and the relabelled `inner` simplices."""
    order = default_order(maximal)
    new = dict(zip(order, labels.block(len(order))))
    x = Complex([[new[v] for v in s] for s in maximal], [new[v] for v in order])
    if inner is None:
        return x, None
    return x, [tuple(sorted((new[v] for v in s), key=x.rank.__getitem__)) for s in inner]


def key(s) -> str:
    return ",".join(str(v) for v in s)


def valued_json(degree: int, values: dict) -> dict:
    return {"degree": degree, "values": {key(s): c for s, c in values.items()}}


def random_values(rng: random.Random, simplices, density=0.3, lo=-3, hi=3) -> dict:
    out = {}
    for s in simplices:
        if rng.random() < density:
            c = rng.randint(lo, hi)
            if c:
                out[s] = c
    return out
