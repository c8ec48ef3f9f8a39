"""Loading documents into the engine, running one query under the
guards, and checking its answer.

Imports ``credalnet`` from the ``src`` directory of the checkout that
holds this benchmark, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "credalnet", "__init__.py")):
    raise SystemExit(f"benchmark: no credalnet sources under {SRC}")
if sys.path[0] != SRC:
    sys.path.insert(0, SRC)

import credalnet  # noqa: E402
from credalnet import fileio, queries  # noqa: E402
from credalnet.graph import Dag  # noqa: E402
from credalnet.network import CredalNetwork  # noqa: E402

import guard  # noqa: E402

if not os.path.abspath(credalnet.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"benchmark: credalnet imported from "
                     f"{credalnet.__file__}, not from {SRC}")

#: Largest network loaded through ``fileio.load_network_document``.  Its
#: validation pass is cubic in the node count (2.9 s at 400 nodes on a
#: 2-CPU VM, about 12 hours at 10^4), so longer chains are loaded by
#: :func:`load_unvalidated`; see METRICS.md.
MAX_VALIDATED_NODES = 256

#: An answer is wrong when a bound is off its reference by more than
#: this times max(1, |reference|).
REL_TOL = 1e-6


def load_network(doc: dict) -> CredalNetwork:
    if len(doc["nodes"]) <= MAX_VALIDATED_NODES:
        return fileio.load_network_document(doc)
    return load_unvalidated(doc)


def load_unvalidated(doc: dict) -> CredalNetwork:
    """``fileio.load_network_document`` without ``validate_document``:
    the same parsed local sets and network.  The traced run records it
    as a ``fileio`` span."""
    names = [str(e["name"]) for e in doc["nodes"]]
    spaces = {str(e["name"]): tuple(str(x) for x in e["states"])
              for e in doc["nodes"]}
    dag = Dag(names, [(str(a), str(b)) for a, b in doc["edges"]])
    locals_ = {}
    for entry in doc["locals"]:
        s = str(entry["node"])
        cfg = tuple(str(entry["given"][p]) for p in dag.parents(s))
        locals_[(s, cfg)] = fileio._parse_local(entry, spaces[s])
    return CredalNetwork(dag, spaces, locals_)


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def execute(net, query, ref: tuple, deadline_s: float):
    """Run one query; returns ``(outcome, seconds, result)``.

    The outcome is ``ok``, ``timeout``, ``wrong`` or ``error.<Name>``;
    ``result`` is the engine's mapping, or None when it raised."""
    result = None
    start = time.perf_counter()
    try:
        with guard.deadline(deadline_s):
            result = queries.run_query(net, query)
        elapsed = time.perf_counter() - start
    except guard.DeadlineExceeded:
        return "timeout", time.perf_counter() - start, None
    except Exception as e:  # counted as a failure, never fatal
        return f"error.{type(e).__name__}", time.perf_counter() - start, None
    ok = close(result["lower"], ref[0]) and close(result["upper"], ref[1])
    return ("ok" if ok else "wrong"), elapsed, result
