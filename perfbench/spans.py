"""Spans around the calls into capstar's layers, recorded from outside.

`Tracer.install` replaces each traced public function by a wrapper at
every place a capstar module binds it (`from .bridge import boundary_of`
makes one binding per importing module), so calls between modules are
seen too.  The program itself carries no instrumentation.  Spans nest:
a layer's self time is its span's duration minus the time of the spans
it caused.  Totals are kept in memory and read out at the end.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions whose calls are spans named "module.function"
TRACED = {
    "io": ("parse_complex", "parse_chain", "parse_cochain"),
    "complexes": ("barycentric_subdivide", "induced_subdivision", "closed_star",
                  "nonmeeting_complement"),
    "bridge": ("chain_complex_of", "relative_chain_complex", "boundary_of",
               "coboundary_of", "subdivision_chain_map", "last_vertex_chain_map"),
    "intlinalg": ("smith_normal_form",),
    "chains": ("homology", "induced_map_on_homology", "is_quasi_isomorphism",
               "uct_check"),
    "products": ("cup", "cap", "supported_cap", "relative_supported_cap"),
    "bm": ("bm_supported_cap", "pair_long_exact_sequence"),
    "verify": ("run_suite",),
}

HOMOLOGY_DEGREES = (0, 1, 2, 3)


def _homology_span(args, kwargs) -> str:
    degree = args[1] if len(args) > 1 else kwargs.get("degree")
    return f"chains.homology.d{degree}" if degree in HOMOLOGY_DEGREES else "chains.homology.dx"


class Tracer:
    """Self time and call count per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        # time covered by child spans, one entry per open span; the
        # bottom entry collects the time of top-level spans
        self._child_s = [0.0]
        self._restore = []

    def top_level_s(self) -> float:
        return self._child_s[0]

    def _wrap(self, fn, name):
        child_s, self_s, calls = self._child_s, self.self_s, self.calls
        fixed = None if callable(name) else name

        def span(*args, **kwargs):
            label = fixed or name(args, kwargs)
            child_s.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                self_s[label] += took - child_s.pop()
                calls[label] += 1
                child_s[-1] += took

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded
        capstar modules."""
        mods = {n: m for n, m in sys.modules.items()
                if m is not None and (n == "capstar" or n.startswith("capstar."))}
        for short, names in TRACED.items():
            owner = mods[f"capstar.{short}"]
            for fname in names:
                fn = getattr(owner, fname)
                label = _homology_span if fname == "homology" else f"{short}.{fname}"
                wrapper = self._wrap(fn, label)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))
        group = mods["capstar.chains"].HomologyGroup
        original = group.coords_of
        group.coords_of = self._wrap(original, "chains.coords_of")
        self._restore.append((group, "coords_of", original))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
