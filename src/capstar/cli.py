"""Command-line surface.

Commands: validate, homology, cup, cap, subdivide, verify.
Exit codes: 0 success, 1 input or precondition error, 2 mathematical
assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from .bridge import chain_complex_of
from .chains import homology
from .complexes import barycentric_subdivide
from .errors import InternalCheckError, ValidationError
from .io import (
    load_chain,
    load_cochain,
    load_complex,
    serialize_cochain,
    serialize_complex,
)
from .products import cup, relative_supported_cap, supported_cap
from .verify import run_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2


def _subcomplex_from_file(x, path):
    """The simplices of a complex file as a subcomplex of `x`, each
    re-sorted into the vertex order of `x`."""
    sub = load_complex(path)
    for v in sub.vertex_order:
        if sub.has_vertex(v) and not x.has_vertex(v):
            raise ValidationError(f"vertex {v!r} of {path} is not in the ambient complex")
    return x.subcomplex(sorted(s, key=x.rank_of) for s in sub.all_simplices())


def cmd_validate(args) -> int:
    x = load_complex(args.complex)
    for d in range(x.dimension + 1):
        print(f"dim {d}: {len(x.simplices_of_dim(d))}")
    if x.dimension < 0:
        print("empty complex")
    return EXIT_OK


def cmd_homology(args) -> int:
    x = load_complex(args.complex)
    label = "H^BM" if args.bm else "H"
    complex_ = chain_complex_of(x, _subcomplex_from_file(x, args.rel) if args.rel else None)
    top = max(x.dimension, 0)
    for n in range(top + 1):
        h = homology(complex_, n)
        print(f"{label}_{n} = {h.group_str()}")
    return EXIT_OK


def cmd_cup(args) -> int:
    x = load_complex(args.complex)
    u = load_cochain(args.u, x)
    v = load_cochain(args.v, x)
    print(serialize_cochain(cup(u, v)))
    return EXIT_OK


def cmd_cap(args) -> int:
    x = load_complex(args.complex)
    u = load_cochain(args.cochain, x)
    alpha = load_chain(args.chain, x)
    z = _subcomplex_from_file(x, args.support) if args.support else x.full_subcomplex()
    if args.rel:
        y = _subcomplex_from_file(x, args.rel)
        res = relative_supported_cap(x, y, z, u, alpha, presubdivide=args.presubdivide)
    else:
        res = supported_cap(x, z, u, alpha, presubdivide=args.presubdivide)
    deg = res.chain_image.degree
    print(f"chain: {res.chain_image.format()}")
    _print_star(res.star)
    if args.rel:
        print(f"class in H_{deg}(N,N'): {res.class_in_pair.format()}"
              f" [{res.class_in_pair.group.group_str()}]")
    if res.class_in_z is not None:
        print("class: " + res.class_in_z.format(f"H_{deg}(Z,Z&Y)" if args.rel else f"H_{deg}(Z)"))
    else:
        print("class: not transported (inclusion of pairs is not an isomorphism; "
              "increase --presubdivide)")
    return EXIT_OK


def _print_star(star) -> None:
    by_dim = {}
    for s in star.simplices:
        by_dim.setdefault(len(s) - 1, 0)
        by_dim[len(s) - 1] += 1
    counts = ", ".join(f"dim {d}: {by_dim[d]}" for d in sorted(by_dim)) or "empty"
    print(f"star: {counts}")


def cmd_subdivide(args) -> int:
    if args.times < 0:
        raise ValidationError("--times must be >= 0")
    x = load_complex(args.complex)
    for _ in range(args.times):
        x = barycentric_subdivide(x).complex
    print(serialize_complex(x))
    return EXIT_OK


def cmd_verify(args) -> int:
    x = load_complex(args.complex)
    results = run_suite(x, trials=args.trials, seed=args.seed)
    failed = False
    for r in sorted(results, key=lambda r: r.name):
        status = "PASS" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}{suffix}")
        failed = failed or not r.passed
    return EXIT_MATH if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capstar",
        description="Simplicial homology, cup/cap products with supports, "
                    "and Borel-Moore homology of pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a complex file")
    p.add_argument("complex")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="print homology groups per degree")
    p.add_argument("complex")
    p.add_argument("--rel", help="subcomplex file for relative homology")
    p.add_argument("--bm", action="store_true",
                   help="label the groups as Borel-Moore homology of the complement")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("cup", help="cup product of two cochains")
    p.add_argument("complex")
    p.add_argument("--u", required=True, help="left cochain file")
    p.add_argument("--v", required=True, help="right cochain file")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("cap", help="supported cap product")
    p.add_argument("complex")
    p.add_argument("--cochain", required=True, help="closed cochain file")
    p.add_argument("--chain", required=True, help="cycle (or relative cycle) file")
    p.add_argument("--support", help="support subcomplex file (default: the whole complex)")
    p.add_argument("--rel", help="boundary subcomplex file for the relative cap")
    p.add_argument("--presubdivide", type=int, default=0,
                   help="barycentric subdivisions to apply before computing")
    p.set_defaults(func=cmd_cap)

    p = sub.add_parser("subdivide", help="barycentric subdivision, printed as a complex file")
    p.add_argument("complex")
    p.add_argument("--times", type=int, default=1)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("verify", help="run the invariant suites against a complex")
    p.add_argument("complex")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
