"""Network and query files.

Both are restricted JSON documents with a canonical field order, so a
parse/serialize round trip is byte-stable.  Probabilities and bounds may
be written as JSON numbers, decimal strings, or exact fractions "a/b";
fixtures prefer fractions to avoid decimal-representation drift.  Every
number must be finite, and no JSON object may repeat a key.

Network document::

    {"nodes": [{"name": "1", "states": ["h", "t"]}, ...],
     "edges": [["1", "2"], ...],
     "locals": [{"node": "1", "given": {},
                 "vertices": [{"h": "1/4", "t": "3/4"}, ...]},
                {"node": "2", "given": {"1": "h"},
                 "constraints": [{"alpha": {"h": "1", "t": "0"},
                                  "beta": "1/4"}, ...]}]}

Query document::

    {"target": {"scope": ["2"], "table": {"h": 1, "t": 0}},
     "given": {"assignment": {"1": "h"}},
     "rule": "natural", "method": "auto", "tolerance": 1e-9}

The target may also be {"indicator": {"scope": [...], "states": [[...]]}}
and the conditioning event an explicit joint-state list with the same
shape.  ``rule`` is natural, regular or unconditional; ``method`` is
auto, lp, chain, hmm or decompose, an alias of auto; and the tolerance
must be positive.  A table names every joint state of its scope and no
other; a list-style table names each one once.

Network documents are read in a single pass that both records every
defect (:func:`validate_document`) and builds the network that
:func:`load_network_document` returns.  A local entry's vertices are
read against the entry's one set of state names into one flat tuple of
floats (:func:`_parse_local`); an entry with constraints gives a
:class:`CredalSet`, which checks itself and enumerates the vertices of
a set given by constraints alone.  The vertex rows of every entry are
then read into one array per state count, and those of every tuple
checked there, once (:func:`credalnet.network.vertex_lists`).  Every
error of an entry, a desk-scale limit of the enumeration or of the
checks among them, is listed at the entry's place among the others.
:class:`CredalNetwork` takes the checked arrays and keeps the local
models in one array per node, from which it hands out ``CredalSet``
views on demand.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product

from .conditioning import DEFAULT_TOLERANCE
from .credal import CredalSet
from .errors import CredalError, InputError
from .graph import Dag
from .network import CredalNetwork, Event, Factor, vertex_lists


def parse_number(v) -> float:
    """JSON number, decimal string, or exact fraction 'a/b'; it must be
    finite."""
    if not isinstance(v, (str, float, int)) or v is True or v is False:
        raise InputError(f"not a number: {v!r}")
    try:
        x = float(Fraction(v)) if isinstance(v, str) and "/" in v else float(v)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise InputError(f"cannot parse number {v!r}: {e}") from None
    if math.isfinite(x):
        return x
    raise InputError(f"not a finite number: {v!r}")


#: Up to this many missing local models of a node are listed one a line.
MAX_LISTED_MISSING = 8


def _fmt(x: float) -> str:
    return repr(float(x))


# -- network documents -------------------------------------------------------

@dataclass
class ValidationReport:
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, msg: str) -> None:
        self.issues.append(msg)

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(self.issues)


def _check_keys(obj: Mapping, allowed: tuple, what: str,
                report: ValidationReport | None = None, *args) -> None:
    """Report the keys of ``obj`` outside ``allowed``, or raise on them;
    ``what`` names ``obj``, formatted with ``args`` only then."""
    extra = obj.keys() - allowed
    if extra:
        message = f"unknown keys {sorted(extra)} in {what.format(*args)}"
        if report is None:
            raise InputError(message)
        report.add(message)


def _read_network(doc) -> tuple[ValidationReport, CredalNetwork | None]:
    """One pass over a raw network document.  Returns every violation
    found (instead of stopping at the first) and, when there is none,
    the network; each local entry is parsed once."""
    report = ValidationReport()
    if not isinstance(doc, Mapping):
        report.add("document is not a JSON object")
        return report, None
    _check_keys(doc, ("nodes", "edges", "locals"), "the network document",
                report)

    nodes = doc.get("nodes")
    spaces: dict[str, tuple] = {}
    if not isinstance(nodes, list) or not nodes:
        report.add("missing or empty 'nodes' list")
    else:
        for entry in nodes:
            if not isinstance(entry, Mapping) or "name" not in entry \
                    or not isinstance(entry.get("states"), (list, tuple)):
                report.add(f"malformed node entry {entry!r}")
                continue
            name = str(entry["name"])
            _check_keys(entry, ("name", "states"), "node {!r}", report, name)
            states = tuple(str(x) for x in entry["states"])
            if name in spaces:
                report.add(f"duplicate node {name!r}")
            if not states or len(set(states)) != len(states):
                report.add(f"bad state list for node {name!r}")
            spaces[name] = states

    edge_entries = doc.get("edges", [])
    if not isinstance(edge_entries, (list, tuple)):
        report.add("'edges' is not a list")
        return report, None
    edges: dict[tuple, None] = {}             # insertion-ordered set
    for e in edge_entries:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            report.add(f"malformed edge {e!r}")
            continue
        a, b = str(e[0]), str(e[1])
        if a not in spaces or b not in spaces:
            report.add(f"edge ({a!r}, {b!r}) references undeclared node")
            continue
        if a == b:
            report.add(f"self-loop on node {a!r}")
            continue
        if (a, b) in edges:
            report.add(f"duplicate edge ({a!r}, {b!r})")
            continue
        edges[(a, b)] = None
    try:
        # nodes and edges are clean by now: only a cycle can be left
        dag = Dag(spaces, edges)
    except InputError:
        report.add("acyclicity violated")
        return report, None

    # local models: coverage and parse
    local_entries = doc.get("locals", [])
    if not isinstance(local_entries, (list, tuple)):
        report.add("'locals' is not a list")
        return report, None
    parents = {s: dag.parents(s) for s in dag.nodes}
    seen = set()
    given_count = dict.fromkeys(dag.nodes, 0)
    locals_ = {}
    places = {}     # the place in the report of each vertex tuple
    for entry in local_entries:
        if not isinstance(entry, Mapping) or "node" not in entry \
                or not isinstance(entry.get("given", {}), Mapping):
            report.add(f"malformed local entry {entry!r}")
            continue
        s = str(entry["node"])
        _check_keys(entry, ("node", "given", "vertices", "constraints"),
                    "a local entry of node {!r}", report, s)
        if s not in spaces:
            report.add(f"local model for undeclared node {s!r}")
            continue
        given = entry.get("given", {})
        try:
            cfg = tuple(str(given[p]) for p in parents[s])
        except KeyError as e:
            report.add(f"local model for {s!r} misses parent value {e}")
            continue
        if len(given) != len(cfg):
            report.add(f"local model for {s!r} is given non-parents "
                       f"{sorted(set(given) - set(parents[s]))}")
        key = (s, cfg)
        if key in seen:
            report.add(f"duplicate local model for {key!r}")
            continue
        seen.add(key)
        if not all(x in spaces[p] for p, x in zip(parents[s], cfg)):
            report.add(f"local model for impossible configuration {key!r}")
            continue
        given_count[s] += 1
        try:
            locals_[key] = _parse_local(entry, spaces[s])
        except CredalError as e:
            report.add(f"invalid local model for {key!r}: {e}")
            continue
        if type(locals_[key]) is tuple:
            places[key] = len(report.issues)
    # count the missing local models before listing any, so that a node
    # with many parents costs no more than the entries the document gives
    for s in sorted(dag.nodes):
        pa_spaces = [spaces[p] for p in parents[s]]
        needed, given = math.prod(map(len, pa_spaces)), given_count[s]
        if needed - given > MAX_LISTED_MISSING:
            report.add(f"node {s!r} needs {needed} local models, the "
                       f"document gives {given}")
        elif needed > given:
            for cfg in sorted(product(*pa_spaces)):
                if (s, cfg) not in seen:
                    report.add(f"missing local model for node {s!r} given "
                               f"{cfg!r}")
    # the vertex rows of every entry, read once, and those of every tuple
    # checked; a defect is listed at its entry's place
    keys = list(locals_)
    checked = vertex_lists(list(locals_.values()),
                           [len(spaces[s]) for s, _ in keys], keys)
    for i, error in reversed(checked[1]):
        report.issues.insert(places[keys[i]], f"invalid local model for "
                                              f"{keys[i]!r}: {error}")
    if not report.ok:
        return report, None
    return report, CredalNetwork(dag, spaces, locals_, checked=checked)


def validate_document(doc) -> ValidationReport:
    """Structural validation of a raw network document; reports every
    violation instead of stopping at the first."""
    return _read_network(doc)[0]


def _objects(entry: Mapping, key: str):
    """``entry[key]`` checked to be a list of JSON objects, or None; a
    dict passes without the slower abstract-class check."""
    value = entry.get(key)
    if value is not None and not (
            isinstance(value, (list, tuple)) and
            all(isinstance(v, (dict, Mapping)) for v in value)):
        raise InputError(f"{key!r} must be a list of objects")
    return value


def _row(obj: Mapping, states: tuple, names: set, what: str) -> list[float]:
    """The numbers of ``obj``, which names exactly ``states`` (the set
    ``names``), in state order."""
    if obj.keys() != names:
        raise InputError(f"{what} {obj!r} does not name exactly the states "
                         f"{states}")
    return [parse_number(obj[s]) for s in states]


def _parse_local(entry: Mapping, states: tuple) -> tuple | CredalSet:
    """A local entry's vertex list as one flat tuple of floats, a row
    per vertex in state order, left for :class:`CredalNetwork` to check;
    an entry with constraints, or with neither form, as a
    :class:`CredalSet`."""
    vertices = entry.get("vertices")
    if type(vertices) is list and "constraints" not in entry:
        # at speed: objects that name exactly the states, and finite
        # floats, as their sum then is; else the first defect, vertex by
        # vertex
        try:
            numbers = [v[s] for v in vertices for s in states]
        except (KeyError, TypeError):
            numbers = None
        if numbers is not None and sum(map(len, vertices)) == len(numbers) \
                and set(map(type, numbers)) <= {float} \
                and math.isfinite(sum(numbers)):
            return tuple(numbers)
    vertices = _objects(entry, "vertices")
    constraints = _objects(entry, "constraints")
    names = set(states)
    if vertices is not None:
        vertices = [_row(v, states, names, "vertex") for v in vertices]
        if constraints is None:
            return tuple(chain.from_iterable(vertices))
    if constraints is not None:
        for c in constraints:
            if not isinstance(c.get("alpha"), Mapping) or "beta" not in c:
                raise InputError(f"constraint needs alpha and beta: {c!r}")
            _check_keys(c, ("alpha", "beta"), "a constraint")
        constraints = [(_row(c["alpha"], states, names, "constraint alpha"),
                        parse_number(c["beta"])) for c in constraints]
    return CredalSet(states, vertices=vertices, constraints=constraints)


def load_network_document(doc) -> CredalNetwork:
    """The network of a raw document, validated and built in one pass."""
    report, net = _read_network(doc)
    if net is None:
        raise InputError("invalid network document:\n" + str(report))
    return net


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


def read_json(path: str):
    """The JSON document in the file ``path``.  A syntax error or a key
    repeated within one object raises :class:`InputError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, InputError) as e:
            raise InputError(f"cannot parse {path}: {e}") from None


def load_network(path: str) -> CredalNetwork:
    return load_network_document(read_json(path))


def network_document(net: CredalNetwork) -> dict:
    """Canonical document for a network (vertex representation when
    available, constraints otherwise)."""
    doc = {
        "nodes": [{"name": s, "states": list(net.states(s))}
                  for s in net.dag.nodes],
        "edges": sorted([list(e) for e in net.dag.edges],
                        key=lambda e: (net.dag.index(e[0]), net.dag.index(e[1]))),
        "locals": [],
    }
    for s in net.dag.nodes:
        for cfg, form in zip(net.parent_configs(s), net.local_forms(s)):
            entry = {"node": s,
                     "given": {p: x for p, x in zip(net.dag.parents(s), cfg)}}
            if isinstance(form, tuple):
                entry["constraints"] = [
                    {"alpha": {x: _fmt(a) for x, a in zip(net.states(s),
                                                          c.coeffs)},
                     "beta": _fmt(c.bound)} for c in form]
            else:
                entry["vertices"] = [dict(zip(net.states(s), map(_fmt, v)))
                                     for v in form.tolist()]
            doc["locals"].append(entry)
    return doc


def dump_network(net: CredalNetwork) -> str:
    return json.dumps(network_document(net), indent=1, sort_keys=False) + "\n"


# -- query documents ----------------------------------------------------------

RULES = ("natural", "regular", "unconditional")
METHODS = ("auto", "lp", "decompose", "chain", "hmm")


def _check_query(net: CredalNetwork, gambles: Sequence[Factor],
                given: Event | None, rule: str, method: str,
                tolerance: float) -> None:
    """The first check of every query, from a document or a library
    call: a known rule and method, 0 < tolerance < inf, a nonempty batch
    of gambles on one scope, scopes of network nodes in declaration
    order, and a nonempty event, none under ``unconditional``.  Private:
    the benchmark's tracer times every public ``fileio`` call as a load."""
    if rule not in RULES:
        raise InputError(f"unknown rule {rule!r}")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    if not 0.0 < tolerance < math.inf:
        raise InputError(f"tolerance must be positive and finite, not "
                         f"{tolerance!r}")
    if not gambles:
        raise InputError("no gamble to take the lower expectation of")
    scope = gambles[0].scope
    for g in gambles:
        if g.scope != scope:
            raise InputError(f"factor scopes {scope} and {g.scope} differ")
    if given is not None and rule == "unconditional":
        raise InputError("unconditional queries cannot carry a conditioning "
                         "event")
    for x in (scope,) if given is None else (scope, given.scope):
        if net.dag.sorted_nodes(x) != x:
            raise InputError(f"scope {x} is not in declaration order")
    if given is not None and given.empty:
        raise InputError("conditioning event is empty")


@dataclass
class Query:
    target: Factor
    given: Event | None
    rule: str
    method: str
    tolerance: float


def _json_object(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise InputError(f"{what} must be an object, not {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, not {value!r}")
    return value


def _parse_scoped_states(net: CredalNetwork, obj, what: str):
    obj = _json_object(obj, what)
    _check_keys(obj, ("scope", "states"), what)
    scope = [str(s) for s in _json_list(obj.get("scope", []), f"{what} scope")]
    scope_t = net.dag.sorted_nodes(scope)
    states = obj.get("states")
    if not isinstance(states, list) or not states:
        raise InputError(f"{what} needs a nonempty 'states' list")
    tuples = []
    for row in states:
        if not isinstance(row, list) or len(row) != len(scope):
            raise InputError(f"bad joint state {row!r} for scope {scope}")
        by_node = dict(zip(scope, map(str, row)))
        tuples.append(tuple(by_node[s] for s in scope_t))
    return scope_t, tuples


def parse_query(net: CredalNetwork, doc) -> Query:
    if not isinstance(doc, Mapping) or "target" not in doc:
        raise InputError("query document needs a 'target'")
    _check_keys(doc, ("target", "given", "rule", "method", "tolerance"),
                "the query")
    target = _json_object(doc["target"], "query 'target'")
    _check_keys(target, ("scope", "table", "indicator"), "query 'target'")
    if "indicator" in target:
        scope_t, tuples = _parse_scoped_states(net, target["indicator"],
                                               "indicator target")
        factor = net.indicator(net.event(scope_t, tuples))
    elif "table" in target:
        scope = [str(s) for s in _json_list(target.get("scope", []),
                                            "target scope")]
        scope_t = net.dag.sorted_nodes(scope)
        table = target["table"]
        if isinstance(table, Mapping):
            if len(scope_t) != 1:
                raise InputError("mapping-style tables need a single-node scope")
            entries = {(str(k),): parse_number(v) for k, v in table.items()}
        else:
            entries = {}
            for row in _json_list(table, "target table"):
                row = _json_object(row, "table row")
                _check_keys(row, ("states", "value"), "a table row")
                states = row.get("states")
                if not isinstance(states, list) or len(states) != len(scope):
                    raise InputError(
                        f"bad joint state {states!r} for scope {scope}")
                by_node = dict(zip(scope, map(str, states)))
                key = tuple(by_node[s] for s in scope_t)
                if key in entries:
                    raise InputError(f"target table repeats state {states!r}")
                entries[key] = parse_number(row.get("value"))
        factor = net.factor(scope_t, entries)
    else:
        raise InputError("target needs 'table' or 'indicator'")

    rule = doc.get("rule", "unconditional")
    method = doc.get("method", "auto")
    tolerance = parse_number(doc.get("tolerance", DEFAULT_TOLERANCE))
    given_doc = doc.get("given")
    given = None
    if given_doc is not None:
        given_doc = _json_object(given_doc, "query 'given'")
        if "assignment" in given_doc:
            _check_keys(given_doc, ("assignment",), "query 'given'")
            assignment = {str(k): str(v) for k, v in _json_object(
                given_doc["assignment"], "'assignment'").items()}
            if not assignment:
                raise InputError("empty conditioning assignment")
            given = net.cylinder(assignment)
        else:
            scope_t, tuples = _parse_scoped_states(net, given_doc,
                                                   "conditioning event")
            given = net.event(scope_t, tuples)
    _check_query(net, [factor], given, rule, method, tolerance)
    if rule != "unconditional" and given is None:
        raise InputError(f"rule {rule!r} needs a conditioning event")
    return Query(factor, given, rule, method, tolerance)


def load_query(net: CredalNetwork, path: str) -> Query:
    return parse_query(net, read_json(path))
