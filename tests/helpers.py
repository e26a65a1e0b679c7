"""Shared generators for randomized chain-algebra tests, and the edge
where a test turns a matrix into dense values."""

from capstar import intlinalg as la
from capstar.chains import chain_complex, chain_map
from capstar.complexes import from_maximal_simplices


def dense(m: la.SparseMatrix) -> list:
    """The entries of `m` as nested lists of Python ints, row by row."""
    return [[row.get(j, 0) for j in range(m.shape[1])] for row in m.rows]


def pseudo_projective_plane(p: int):
    """P_p: a disk whose boundary wraps p times round the 3-vertex circle
    a0 a1 a2, so that H = Z, Z/p, 0.  An annulus joins the circle, edge
    by edge, to an inner ring s0..s(3p-1), which a cone on `c` caps."""
    ring = 3 * p
    triangles = []
    for k in range(ring):
        a, b, s, s_next = f"a{k % 3}", f"a{(k + 1) % 3}", f"s{k}", f"s{(k + 1) % ring}"
        triangles += [[a, b, s], [b, s, s_next], [s, s_next, "c"]]
    return from_maximal_simplices(triangles, name=f"P{p}")


def random_matrix(rng, rows, cols, lo=-3, hi=3):
    return la.SparseMatrix.of(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        shape=(rows, cols),
    )


def random_complex(rng, length=4, max_rank=5, diff_degree=-1, base_degree=0):
    """Random finitely generated free complex with d o d = 0, built by
    sending each next differential into the kernel of the previous."""
    n_degrees = rng.randint(1, length)
    ranks = {base_degree + i: rng.randint(1, max_rank) for i in range(n_degrees)}
    diffs = {}
    prev = None  # differential out of the previous degree
    order = sorted(ranks) if diff_degree == -1 else sorted(ranks, reverse=True)
    # walk from the "target end" so each new map lands in the kernel
    for idx, deg in enumerate(order):
        if idx == 0:
            prev = None
            continue
        lower = order[idx - 1]
        rows, cols = ranks[lower], ranks[deg]
        if prev is None:
            mat = random_matrix(rng, rows, cols)
        else:
            kb = la.kernel_basis(prev)
            mat = kb @ random_matrix(rng, kb.shape[1], cols, lo=-2, hi=2)
        diffs[deg] = mat
        prev = mat
    return chain_complex(diff_degree, ranks, diffs)


def random_chain_maps(rng, source, target, count=1, lo=-2, hi=2):
    """Random degree-0 chain maps source -> target, drawn from an exact
    integer basis of the space of all chain maps."""
    eps = source.diff_degree
    degrees = sorted(set(source.ranks) | set(target.ranks))
    # unknowns: entries of f_n for each degree, flattened
    offsets = {}
    total = 0
    for n in degrees:
        size = target.rank(n) * source.rank(n)
        offsets[n] = total
        total += size

    rows = []
    for n in degrees:
        # constraint: f_{n+eps} d_n - d_n f_n = 0, entrywise
        rn, cn = target.rank(n + eps), source.rank(n)
        if rn == 0 or cn == 0:
            continue
        ds = dense(source.sparse_d(n))
        dt = dense(target.sparse_d(n))
        for i in range(rn):
            for j in range(cn):
                row = [0] * total
                # (f_{n+eps} d_n)[i, j] = sum_k f_{n+eps}[i, k] ds[k, j]
                for k in range(source.rank(n + eps)):
                    if ds[k][j]:
                        row[offsets[n + eps] + i * source.rank(n + eps) + k] += ds[k][j]
                # (d_n f_n)[i, j] = sum_k dt[i, k] f_n[k, j]
                for k in range(target.rank(n)):
                    if dt[i][k]:
                        row[offsets[n] + k * source.rank(n) + j] -= dt[i][k]
                rows.append(row)
    constraint = la.SparseMatrix.of(rows, shape=(len(rows), total))
    kb = la.kernel_basis(constraint)
    maps = []
    for _ in range(count):
        coeffs = la.SparseMatrix.of(
            [[rng.randint(lo, hi)] for _ in range(kb.shape[1])], shape=(kb.shape[1], 1)
        )
        flat = [row[0] for row in dense(kb @ coeffs)]
        mats = {}
        for n in degrees:
            rt, cs = target.rank(n), source.rank(n)
            if rt and cs:
                mats[n] = [[flat[offsets[n] + i * cs + j] for j in range(cs)] for i in range(rt)]
        maps.append(chain_map(source, target, mats))
    return maps
