"""Reference bounds, computed on paths that share no code with the engine
under test.

* Global program: scipy's HiGHS on the irrelevance constraints written
  in vertex form.  For every node ``s`` and every joint state ``x`` of
  its non-descendants, the masses ``P(z_s, x)`` (summed over the
  descendants of ``s``) must be a non-negative combination of the
  extreme points of the local set at ``x``'s parent configuration.
  The engine writes the same polytope with homogeneous facet rows.
* Conditionals: the Charnes-Cooper transform of the linear-fractional
  program.  Under the regular rule the value is
  ``min (f 1_B)^T y`` over the cone ``y >= 0`` with ``1_B^T y = 1``
  (infeasible exactly when the upper probability of B is zero).  Under
  the natural rule it is the same value when the lower probability of B
  is positive and the vacuous ``min_B f`` otherwise.
* Chains and hidden-state models: backward sweeps over the interval
  locals in numpy, rescaled at every step (the bracketing function is
  positively homogeneous, so rescaling keeps every sign and root), with
  the root found by bisection to machine precision.

Documents are read as plain JSON; the engine is not imported here.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: A lower probability of B at or below this counts as zero.  All
#: documents use exact 0 for zero local bounds, and positive lower
#: probabilities of one-node events are at least 0.05.
ZERO_PROB = 1e-12

#: Tighter than HiGHS's defaults (1e-7): Charnes-Cooper scales the masses
#: by 1 / P(B), which multiplies any feasibility error into the value.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


class Net:
    """Binary interval network read from a network document."""

    def __init__(self, doc: dict):
        self.names = [str(e["name"]) for e in doc["nodes"]]
        self.pos = {s: i for i, s in enumerate(self.names)}
        self.n = len(self.names)
        self.parents = {s: [] for s in self.names}
        self.children = {s: [] for s in self.names}
        for a, b in doc["edges"]:
            self.parents[b].append(a)
            self.children[a].append(b)
        for s in self.names:
            self.parents[s].sort(key=self.pos.__getitem__)
        # vertices[(s, cfg)] = array (k, 2) of extreme points
        self.vertices = {}
        for entry in doc["locals"]:
            s = entry["node"]
            cfg = tuple(entry["given"][p] for p in self.parents[s])
            self.vertices[(s, cfg)] = np.array(
                [[float(v["0"]), float(v["1"])] for v in entry["vertices"]])

    def descendants(self, s: str) -> set:
        out, stack = set(), [s]
        while stack:
            for c in self.children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def interval(self, s: str, cfg: tuple) -> tuple[float, float]:
        """Bounds on the probability of state "0"."""
        p0 = self.vertices[(s, cfg)][:, 0]
        return float(p0.min()), float(p0.max())


def lower_expectation(lo: np.ndarray, hi: np.ndarray, g0, g1):
    """Lower expectation of the gamble (g0, g1) over the interval
    [lo, hi] on p("0"), elementwise."""
    return np.minimum(lo * g0 + (1.0 - lo) * g1, hi * g0 + (1.0 - hi) * g1)


# -- global program -----------------------------------------------------------

class GlobalProgram:
    """Equality rows ``A [p; lambda] = 0`` of the irrelevance cone over
    the joint states (lexicographic, first node most significant)."""

    def __init__(self, net: Net):
        self.net = net
        n = net.n
        self.total = 2 ** n
        j = np.arange(self.total)
        digits = {s: (j >> (n - 1 - i)) & 1 for i, s in enumerate(net.names)}
        self.digits = digits
        rows, cols, vals = [], [], []
        n_rows = 0
        n_lam = 0
        for s in net.names:
            nd = [u for u in net.names
                  if u != s and u not in net.descendants(s)]
            nd_index = np.zeros(self.total, dtype=np.int64)
            for u in nd:
                nd_index = nd_index * 2 + digits[u]
            for x in range(2 ** len(nd)):
                x_digits = {u: (x >> (len(nd) - 1 - k)) & 1
                            for k, u in enumerate(nd)}
                cfg = tuple(str(x_digits[p]) for p in net.parents[s])
                V = net.vertices[(s, cfg)]
                for z in (0, 1):
                    members = np.nonzero((nd_index == x) & (digits[s] == z))[0]
                    rows.extend([n_rows] * len(members))
                    cols.extend(members.tolist())
                    vals.extend([1.0] * len(members))
                    for k in range(len(V)):
                        rows.append(n_rows)
                        cols.append(self.total + n_lam + k)
                        vals.append(-V[k, z])
                    n_rows += 1
                n_lam += len(V)
        self.n_vars = self.total + n_lam
        self.cone = sp.csr_matrix((vals, (rows, cols)),
                                  shape=(n_rows, self.n_vars))

    def vector(self, scope, values) -> np.ndarray:
        """A gamble given on ``scope`` (lexicographic values), extended
        to every joint state."""
        idx = np.zeros(self.total, dtype=np.int64)
        for s in scope:
            idx = idx * 2 + self.digits[s]
        return np.asarray(values, dtype=float)[idx]

    def mask(self, assignment: dict) -> np.ndarray:
        m = np.ones(self.total, dtype=bool)
        for s, x in assignment.items():
            m &= self.digits[s] == int(x)
        return m

    def _minimize(self, c: np.ndarray, extra_row: np.ndarray):
        """min c^T p over the cone with one more equality extra_row^T p = 1."""
        cost = np.concatenate([c, np.zeros(self.n_vars - self.total)])
        row = sp.csr_matrix(np.concatenate(
            [extra_row, np.zeros(self.n_vars - self.total)])[None, :])
        A = sp.vstack([self.cone, row]).tocsr()
        b = np.zeros(A.shape[0])
        b[-1] = 1.0
        res = linprog(cost, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options=HIGHS_OPTIONS)
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS ended with status {res.status}: "
                               f"{res.message}")
        return float(res.fun)

    def lower(self, f: np.ndarray) -> float:
        return self._minimize(f, np.ones(self.total))

    def lower_prob(self, mask: np.ndarray) -> float:
        return self._minimize(mask.astype(float), np.ones(self.total))

    def conditional(self, f: np.ndarray, mask: np.ndarray, rule: str) -> float:
        """Lower conditional expectation of f given the event ``mask``."""
        vacuous = float(f[mask].min())
        if rule == "natural" and self.lower_prob(mask) <= ZERO_PROB:
            return vacuous
        value = self._minimize(f * mask, mask.astype(float))
        return vacuous if value is None else value


# -- recursions ---------------------------------------------------------------

def _chain_order(net: Net) -> list[str]:
    (root,) = [s for s in net.names if not net.parents[s]]
    order = [root]
    while net.children[order[-1]]:
        (nxt,) = net.children[order[-1]]
        order.append(nxt)
    return order


def _transitions(net: Net, nodes) -> tuple[np.ndarray, np.ndarray]:
    """Interval bounds of each node given its parent in state 0 and 1:
    arrays of shape (len(nodes), 2)."""
    lo = np.empty((len(nodes), 2))
    hi = np.empty((len(nodes), 2))
    for k, s in enumerate(nodes):
        for x in (0, 1):
            lo[k, x], hi[k, x] = net.interval(s, (str(x),))
    return lo, hi


def chain_lower(net: Net, values) -> float:
    """Lower expectation of a gamble on the last node of a chain."""
    order = _chain_order(net)
    lo, hi = _transitions(net, order[1:])
    g = np.asarray(values, dtype=float)
    for k in range(len(order) - 2, -1, -1):
        g = lower_expectation(lo[k], hi[k], g[0], g[1])
    a, b = net.interval(order[0], ())
    return float(lower_expectation(a, b, g[0], g[1]))


def bisect_root(rho, low: float, high: float) -> float:
    """Unique root of a non-increasing function that is positive below
    ``low`` and negative above ``high``, to machine precision."""
    for _ in range(200):
        mid = 0.5 * (low + high)
        if mid <= low or mid >= high:
            break
        if rho(mid) > 0.0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def chain_reverse_conditional(net: Net, values, x_last: str) -> float:
    """Lower expectation of a gamble on the first node given the last
    node's value.  Chain locals have positive lower bounds, so both
    rules agree on the unique root."""
    order = _chain_order(net)
    lo, hi = _transitions(net, order[1:])
    env_lo = np.array([1.0, 0.0]) if x_last == "0" else np.array([0.0, 1.0])
    env_hi = env_lo.copy()
    for k in range(len(order) - 2, -1, -1):
        env_lo = lower_expectation(lo[k], hi[k], env_lo[0], env_lo[1])
        env_hi = -lower_expectation(lo[k], hi[k], -env_hi[0], -env_hi[1])
    a, b = net.interval(order[0], ())
    h = np.asarray(values, dtype=float)

    def rho(mu):
        g = np.where(h >= mu, env_lo, env_hi) * (h - mu)
        return float(lower_expectation(a, b, g[0], g[1]))

    if rho(h.min() - 1.0) <= 0.0:
        raise ValueError("conditioning event has zero lower probability")
    return bisect_root(rho, float(h.min()), float(h.max()))


def hmm_conditional(net: Net, values, observations: dict) -> float:
    """Filtering: lower expectation of a gamble on the final state node
    given every observation, by a rescaled backward sweep."""
    states = [s for s in net.names if s.startswith("s")]
    obs = [o for o in net.names if o.startswith("o")]
    n = len(obs)
    lo, hi = _transitions(net, states[1:])
    obs_lo = np.empty((n, 2))
    obs_hi = np.empty((n, 2))
    for k, o in enumerate(obs):
        for x in (0, 1):
            a, b = net.interval(o, (str(x),))
            if observations[o] == "0":
                obs_lo[k, x], obs_hi[k, x] = a, b
            else:
                obs_lo[k, x], obs_hi[k, x] = 1.0 - b, 1.0 - a
    a0, b0 = net.interval(states[0], ())
    f = np.asarray(values, dtype=float)

    def rho(mu):
        # h[x]: value given the previous state node is in state x
        h = lower_expectation(lo[n - 1], hi[n - 1], f[0] - mu, f[1] - mu)
        for k in range(n - 1, -1, -1):
            g = h * np.where(h >= 0.0, obs_lo[k], obs_hi[k])
            if k > 0:
                h = lower_expectation(lo[k - 1], hi[k - 1], g[0], g[1])
            else:
                h = lower_expectation(a0, b0, g[0], g[1])
            scale = np.abs(h).max()
            if scale > 0.0:
                h = h / scale
        return float(h)

    if rho(f.min() - 1.0) <= 0.0:
        raise ValueError("observations have zero lower probability")
    return bisect_root(rho, float(f.min()), float(f.max()))
