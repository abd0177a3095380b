"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion or fraction-free elimination written here, divisor chains
by gcds of minors, weight pairings by direct rational arithmetic, and
homology chains as dicts (edge -> coefficient), paired one vertex at a time
and pushed through a correspondence one edge at a time.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def det_fraction_free(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def minors_gcd_chain(rows):
    """Divisor chain d_1 | d_2 | ... from gcds of k x k minors.

    Early exit: the gcd of k-minors is always a multiple of the gcd of
    (k-1)-minors, so once it reaches that floor no smaller value can occur.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    chain = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        done = False
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_fraction_free(sub))
                if g == prev:
                    done = True
                    break
            if done:
                break
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
    return chain


def spinor_weight_vectors(n):
    """Half-sum sign vectors indexed by subsets in binary mask order."""
    out = []
    for mask in range(1 << n):
        out.append(
            tuple(
                Fraction(-1, 2) if (mask >> (j - 1)) & 1 else Fraction(1, 2)
                for j in range(1, n + 1)
            )
        )
    return out


def pairing(x, y, scale):
    return scale * sum(a * b for a, b in zip(x, y))


# -- homology chains as dicts, on a surface.HomologyModel ----------------------


def _vertex_flows(model, chain):
    """Per vertex: inward flow indexed by position in the cyclic end order.
    Tail ends count edge coefficients negatively."""
    flows = {}
    for e, c in chain.items():
        for v, inward in ((model.edge_head[e], c), (model.edge_tail[e], -c)):
            _kind, ends = model.vertex_ends[v]
            flows.setdefault(v, [0] * len(ends))[ends.index(e)] += inward
    return flows


def intersection(model, z1, z2):
    """Algebraic intersection number of two 1-cycles.

    The second cycle is displaced to the right of every oriented edge, so its
    strand arrives just clockwise of a tail end and just counterclockwise of
    a head end; crossings with the first cycle's radial strands are then
    read off the cyclic order.
    """
    f1, f2 = _vertex_flows(model, z1), _vertex_flows(model, z2)
    total = 0
    for v, xs in f1.items():
        ys = f2.get(v)
        if ys is None:
            continue
        kind, _ends = model.vertex_ends[v]
        acc = 0
        run = 0
        if kind == "sheet":
            for x, y in zip(xs, ys):
                run += y
                acc += x * run
        else:
            for x, y in zip(xs, ys):
                acc += x * run
                run += y
        total -= acc
    return total


def boundary(model, chain):
    out = {}
    for e, c in chain.items():
        out[model.edge_head[e]] = out.get(model.edge_head[e], 0) + c
        out[model.edge_tail[e]] = out.get(model.edge_tail[e], 0) - c
    return {v: c for v, c in out.items() if c}


def substitute(chain, fiber, src_labels, dst_labels, arcs):
    """Image of an edge chain on one component under a fiber matrix indexed
    by the full label sets: edge (sheet, arc) goes to every (sheet', arc)."""
    img = {}
    for e, c in chain.items():
        s, arc = divmod(e, arcs)
        for t, t_label in enumerate(dst_labels):
            w = int(fiber[src_labels[s], t_label])
            if w:
                img[t * arcs + arc] = img.get(t * arcs + arc, 0) + c * w
    return {e: c for e, c in img.items() if c}


def class_of(model, chain):
    """Class of a 1-cycle in the model's basis: its non-tree coefficients
    times the model's class map, one entry at a time."""
    return [
        sum(int(model.class_map[i, t]) * chain.get(e, 0) for t, e in enumerate(model.nontree))
        for i in range(model.genus2)
    ]
