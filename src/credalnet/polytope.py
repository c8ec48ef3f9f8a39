"""Vertex and facet enumeration for polytopes inside the probability simplex.

Vertex enumeration is an incremental double-description construction: it
starts from the full simplex (whose vertices are the degenerate mass
functions) and cuts it with one homogeneous halfspace at a time, keeping
per-vertex incidence sets to decide adjacency combinatorially.  All the
polytopes handled here live in the hyperplane ``sum p = 1`` and are
subsets of the simplex, so the starting point is always valid.

Facet enumeration (the reverse direction) reduces the points to their
affine hull and calls Qhull; segments and single points are handled
directly since Qhull requires full-dimensional input.
"""

from __future__ import annotations

import numpy as np

from . import simplex
from .errors import CapabilityError, ModelError

#: Vertices closer than this (max-norm) are considered identical.  A
#: radius of 1e-6 merged the two ends of a valid interval 5e-7 wide.
DEDUP_RADIUS = 1e-12

#: Classification tolerance: |g @ v| below this counts as "on the plane".
_ZTOL = 1e-9

#: Tolerance when recomputing incidence sets of freshly cut vertices.
_TIGHT_TOL = 1e-8

#: Intermediate vertex count at which enumeration gives up.  The joint
#: polytope's vertex count is exponential in the network size, so this is
#: a genuine capability limit, not a tuning knob.
MAX_VERTICES = 20_000

#: Bound on (candidate pairs) x (current vertices) per cut; beyond it the
#: adjacency tests would dominate the runtime for no practical benefit.
_MAX_PAIR_WORK = 2e9

_PAIR_CHUNK = 4096

#: Element budget of one chunk of pairwise point differences, and the
#: number of fresh vertices deduplicated together.
_DIST_CHUNK = 2 ** 20
_DEDUP_BLOCK = 1024


def _adjacent_pairs(T: np.ndarray, pos: np.ndarray, neg: np.ndarray):
    """Indices (i, j) of adjacent generator pairs across the cut.

    Uses the combinatorial test: i and j are adjacent iff no third
    generator's incidence set contains ``T[i] & T[j]``.  The containment
    counts are evaluated as a float32 matmul over incidence bitmaps (the
    counts are small integers, exactly representable).
    """
    if float(len(pos)) * len(neg) * T.shape[0] > _MAX_PAIR_WORK:
        raise CapabilityError(
            "vertex enumeration adjacency work exceeds the desk-scale bound")
    not_t = (~T).astype(np.float32).T        # (C, V)
    Tf = T.astype(np.float32)
    pairs_i = np.repeat(pos, len(neg))
    pairs_j = np.tile(neg, len(pos))
    out_i, out_j = [], []
    for lo in range(0, len(pairs_i), _PAIR_CHUNK):
        pi = pairs_i[lo:lo + _PAIR_CHUNK]
        pj = pairs_j[lo:lo + _PAIR_CHUNK]
        common = Tf[pi] * Tf[pj]
        viol = common @ not_t                # (chunk, V): |common \ T_k|
        n_dominating = (viol == 0).sum(axis=1)
        # i and j always dominate their own intersection
        keep = n_dominating == 2
        out_i.append(pi[keep])
        out_j.append(pj[keep])
    return np.concatenate(out_i), np.concatenate(out_j)


def _near(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(len(X), len(Y)) mask of point pairs closer than the dedup radius
    in max-norm, computed in row chunks of bounded size."""
    out = np.zeros((len(X), len(Y)), dtype=bool)
    if not len(Y):
        return out
    step = max(1, _DIST_CHUNK // (len(Y) * X.shape[1]))
    for lo in range(0, len(X), step):
        diff = np.abs(X[lo:lo + step, None, :] - Y[None, :, :])
        out[lo:lo + step] = diff.max(axis=2) < DEDUP_RADIUS
    return out


def _fresh_vertices(W: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The points of W, in order, that are not near a kept vertex nor
    near an earlier point already taken (greedy keep-in-order pass)."""
    taken = W[:0]
    for lo in range(0, len(W), _DEDUP_BLOCK):
        block = W[lo:lo + _DEDUP_BLOCK]
        block = block[~(_near(block, kept).any(axis=1)
                        | _near(block, taken).any(axis=1))]
        earlier = np.tril(_near(block, block), -1)
        keep = ~earlier.any(axis=1)
        for i in np.flatnonzero(~keep):
            keep[i] = not (earlier[i] & keep).any()
        taken = np.vstack([taken, block[keep]])
    return taken


def cut_simplex(n: int, rows: np.ndarray) -> np.ndarray:
    """Vertices of ``{p >= 0, sum p = 1, rows @ p >= 0}``.

    ``rows`` is a (m, n) array of homogeneous constraint coefficients.
    Returns a (k, n) array of vertices (deduplicated); k = 0 means the
    polytope is empty.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, n)
    n_constraints = n + rows.shape[0]
    V = np.eye(n)
    # incidence bitmap over constraint indices: 0..n-1 are the simplex
    # non-negativity facets, n + r is rows[r]
    T = np.zeros((n, n_constraints), dtype=bool)
    T[:, :n] = ~np.eye(n, dtype=bool)
    A = np.vstack([np.eye(n), rows])         # all constraint rows

    for r in range(rows.shape[0]):
        g = rows[r]
        cidx = n + r
        vals = V @ g
        pos = np.flatnonzero(vals > _ZTOL)
        zero = np.flatnonzero(np.abs(vals) <= _ZTOL)
        neg = np.flatnonzero(vals < -_ZTOL)

        if len(neg) == 0:
            T[zero, cidx] = True
            continue
        if len(pos) == 0 and len(zero) == 0:
            return np.zeros((0, n))

        pi, pj = (_adjacent_pairs(T, pos, neg) if len(pos) else
                  (np.array([], dtype=int), np.array([], dtype=int)))
        lam = (vals[pi] / (vals[pi] - vals[pj]))[:, None]
        W = V[pi] + lam * (V[pj] - V[pi])

        keep = np.concatenate([pos, zero])
        V_new = [V[keep]]
        T_keep = T[keep].copy()
        T_keep[len(pos):, cidx] = True
        T_new = [T_keep]
        if len(W):
            # drop near-duplicates among the fresh vertices and against
            # the kept ones, then recompute incidence against all rows
            U = _fresh_vertices(W, V[keep])
            if len(U):
                V_new.append(U)
                T_new.append(np.abs(U @ A[:n + r + 1].T) <= _TIGHT_TOL)
        V = np.vstack(V_new)
        pad = np.zeros((len(V), n_constraints), dtype=bool)
        off = 0
        for block in T_new:
            pad[off:off + len(block), :block.shape[1]] = block
            off += len(block)
        T = pad

        if len(V) > MAX_VERTICES:
            raise CapabilityError(
                f"vertex enumeration exceeded {MAX_VERTICES} intermediate "
                "vertices; the polytope is too complex to enumerate")
        if len(V) == 0:
            return np.zeros((0, n))

    return V


def facet_constraints(points: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Inequalities ``alpha @ p >= beta`` whose intersection with the
    simplex is the convex hull of ``points``.

    Handles hulls of any affine dimension: directions orthogonal to the
    hull (inside the ``sum p = 1`` hyperplane) are pinned with a pair of
    opposing inequalities.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ModelError("facet enumeration needs at least one point")
    n = pts.shape[1]
    centre = pts.mean(axis=0)
    rows = pts - centre

    # Orthonormal basis of the affine hull via SVD.
    _, svals, vt = np.linalg.svd(rows, full_matrices=True)
    rank = int(np.sum(svals > 1e-10)) if svals.size else 0
    basis = vt[:rank].T                       # (n, rank)

    constraints: list[tuple[np.ndarray, float]] = []

    # Pin the orthogonal complement inside the simplex hyperplane.
    ones = np.ones(n) / np.sqrt(n)
    stacked = np.vstack([basis.T, ones[None, :]])
    _, sv2, vt2 = np.linalg.svd(stacked, full_matrices=True)
    null_rank = int(np.sum(sv2 > 1e-10))
    for direction in vt2[null_rank:]:
        beta = float(direction @ centre)
        constraints.append((direction.copy(), beta))
        constraints.append((-direction, -beta))

    if rank == 0:
        return constraints

    reduced = rows @ basis                     # (k, rank), full-dimensional
    if rank == 1:
        y = reduced[:, 0]
        lo_i, hi_i = int(np.argmin(y)), int(np.argmax(y))
        d = basis[:, 0]
        constraints.append((d.copy(), float(d @ pts[lo_i])))
        constraints.append((-d, float(-d @ pts[hi_i])))
        return constraints

    from scipy.spatial import ConvexHull  # deferred: scipy import is slow

    hull = ConvexHull(reduced)
    for eq in hull.equations:              # a @ y + b <= 0 on the hull
        a, b = eq[:-1], eq[-1]
        alpha = -(basis @ a)               # lift: alpha @ (p - centre) >= b
        beta = float(b + alpha @ centre)
        constraints.append((alpha, beta))
    return constraints


def in_hull(point: np.ndarray, generators: np.ndarray) -> bool:
    """Whether ``point`` is a convex combination of ``generators``, to
    ``TOL_FEAS`` in each state: whether weights ``w >= 0``, ``sum w = 1``
    meet the rows ``D + TOL_FEAS`` and ``TOL_FEAS - D``, where ``D`` is
    ``(G - p)^T``, which bound each state's residual ``D w``."""
    generators = np.asarray(generators, dtype=float)
    k = generators.shape[0]
    if k == 0:
        return False
    D = (generators - np.asarray(point, dtype=float)).T
    H = np.vstack([D + simplex.TOL_FEAS, simplex.TOL_FEAS - D])
    return simplex.phase1(k, H) is not None
