"""JSON wire format of :mod:`repro.serve`.

The request side turns untrusted JSON payloads into validated domain
objects (:class:`~repro.network.spec.NetworkSpec`, simulation knobs),
raising :class:`~repro.errors.ServeError` — never a traceback — on
malformed input.  The response side renders the repo's result types
(:class:`~repro.flow.feasibility.FeasibilityReport`,
:class:`~repro.core.engine.SimulationResult`) as plain JSON-able dicts.

Spec payloads come in two shapes::

    {"topology": "grid", "rows": 4, "cols": 4,
     "source": 0, "sink": 15, "in_rate": 1, "out_rate": 2}

    {"nodes": 6, "edges": [[0, 1], [1, 2], [1, 2], [2, 5]],
     "in_rates": {"0": 1}, "out_rates": {"5": 2},
     "retention": 2, "revelation": "always_r"}

The first mirrors the CLI's generator flags; the second is the explicit
multigraph form (parallel edges allowed, rate maps keyed by node id).
"""

from __future__ import annotations

import re
from dataclasses import asdict
from fractions import Fraction
from typing import Any, Mapping, Optional

from repro.core.engine import SimulationResult
from repro.errors import ReproError, ServeError
from repro.network.spec import NetworkSpec, RevelationPolicy

__all__ = [
    "parse_spec",
    "parse_simulate_request",
    "parse_region_request",
    "region_response",
    "report_to_json",
    "simulation_response",
    "TRACE_HEADER",
    "valid_trace_id",
]

#: Response (and accepted request) header carrying the request's trace id.
TRACE_HEADER = "X-Repro-Trace-Id"

_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]{1,64}$")


def valid_trace_id(value: Optional[str]) -> Optional[str]:
    """``value`` if it is a usable trace id, else ``None``.

    Incoming ids are untrusted header text that will be echoed into
    responses, span records, and log lines — anything outside a short
    URL-safe charset is discarded (the server then mints its own).
    """
    if isinstance(value, str) and _TRACE_ID_RE.match(value):
        return value
    return None

TOPOLOGIES = ("path", "cycle", "grid", "complete", "gnp")

#: Hard ceilings on accepted work — the service must bound the cost of any
#: single request no matter what the payload asks for.
MAX_NODES = 4096
MAX_HORIZON = 50_000


def _bad(detail: str) -> ServeError:
    return ServeError(detail, status=400, error="bad-request")


def _get_int(payload: Mapping[str, Any], key: str, default: Optional[int] = None,
             *, lo: Optional[int] = None, hi: Optional[int] = None) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{key!r} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise _bad(f"{key!r} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise _bad(f"{key!r} must be <= {hi}, got {value}")
    return value


def _rate_map(payload: Mapping[str, Any], key: str, n: int) -> dict[int, int]:
    raw = payload.get(key, {})
    if not isinstance(raw, Mapping):
        raise _bad(f"{key!r} must be an object mapping node -> rate")
    rates: dict[int, int] = {}
    for node, rate in raw.items():
        try:
            v = int(node)
        except (TypeError, ValueError):
            raise _bad(f"{key!r} has non-integer node key {node!r}") from None
        if isinstance(rate, bool) or not isinstance(rate, int) or rate < 0:
            raise _bad(f"{key}[{node}] = {rate!r} must be a nonnegative integer")
        if not (0 <= v < n):
            raise _bad(f"{key!r} references unknown node {v} (n = {n})")
        rates[v] = rate
    return rates


def _explicit_graph(payload: Mapping[str, Any]):
    from repro.graphs.multigraph import MultiGraph

    n = _get_int(payload, "nodes", lo=1, hi=MAX_NODES)
    if n is None:
        raise _bad("explicit specs need 'nodes'")
    edges = payload.get("edges")
    if not isinstance(edges, list) or not edges:
        raise _bad("explicit specs need a non-empty 'edges' list")
    pairs = []
    for e in edges:
        if (not isinstance(e, (list, tuple)) or len(e) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) for x in e)):
            raise _bad(f"edge {e!r} must be a [u, v] integer pair")
        pairs.append((e[0], e[1]))
    return MultiGraph.from_edges(n, pairs)


def _generated_graph(payload: Mapping[str, Any]):
    from repro.graphs import generators as gen

    topology = payload.get("topology")
    if topology not in TOPOLOGIES:
        raise _bad(f"'topology' must be one of {list(TOPOLOGIES)}, got {topology!r}")
    if topology == "grid":
        rows = _get_int(payload, "rows", 3, lo=1, hi=MAX_NODES)
        cols = _get_int(payload, "cols", 3, lo=1, hi=MAX_NODES)
        if rows * cols > MAX_NODES:
            raise _bad(f"grid {rows}x{cols} exceeds the {MAX_NODES}-node limit")
        return gen.grid(rows, cols)
    n = _get_int(payload, "n", 6, lo=2, hi=MAX_NODES)
    if topology == "path":
        return gen.path(n)
    if topology == "cycle":
        return gen.cycle(n)
    if topology == "complete":
        if n > 256:
            raise _bad(f"complete graphs are capped at 256 nodes, got {n}")
        return gen.complete(n)
    p = payload.get("p", 0.3)
    if not isinstance(p, (int, float)) or isinstance(p, bool) or not (0.0 <= p <= 1.0):
        raise _bad(f"'p' must be a probability in [0, 1], got {p!r}")
    seed = _get_int(payload, "seed", 0)
    return gen.random_gnp(n, float(p), seed=seed, ensure_connected=True)


def parse_spec(payload: Mapping[str, Any]) -> NetworkSpec:
    """Validate a JSON spec payload into a :class:`NetworkSpec`.

    Raises :class:`ServeError` (→ a structured 400) on anything malformed,
    including inconsistencies the :class:`NetworkSpec` constructor itself
    rejects.
    """
    if not isinstance(payload, Mapping):
        raise _bad("spec must be a JSON object")
    try:
        if "edges" in payload or "nodes" in payload:
            graph = _explicit_graph(payload)
            in_rates = _rate_map(payload, "in_rates", graph.n)
            out_rates = _rate_map(payload, "out_rates", graph.n)
        else:
            graph = _generated_graph(payload)
            source = _get_int(payload, "source", 0, lo=0, hi=graph.n - 1)
            sink = _get_int(payload, "sink", graph.n - 1, lo=0, hi=graph.n - 1)
            in_rates = {source: _get_int(payload, "in_rate", 1, lo=0)}
            out_rates = {sink: _get_int(payload, "out_rate", 1, lo=0)}

        retention = _get_int(payload, "retention", None, lo=0)
        revelation_raw = payload.get("revelation", "truthful")
        try:
            revelation = RevelationPolicy(revelation_raw)
        except ValueError:
            raise _bad(
                f"'revelation' must be one of "
                f"{[p.value for p in RevelationPolicy]}, got {revelation_raw!r}"
            ) from None
        if retention is not None:
            return NetworkSpec.generalized(
                graph, in_rates, out_rates, retention=retention,
                revelation=revelation,
            )
        if revelation is not RevelationPolicy.TRUTHFUL:
            raise _bad(
                "non-truthful revelation requires the generalized model; "
                "pass 'retention'"
            )
        return NetworkSpec.classical(graph, in_rates, out_rates)
    except ServeError:
        raise
    except ReproError as exc:
        raise _bad(f"invalid network spec: {exc}") from exc


def parse_simulate_request(
    payload: Mapping[str, Any], *, max_horizon: int = MAX_HORIZON
) -> tuple[NetworkSpec, int, int, float]:
    """Validate a ``/v1/simulate`` body → ``(spec, horizon, seed, loss_p)``."""
    if not isinstance(payload, Mapping):
        raise _bad("request body must be a JSON object")
    spec_payload = payload.get("spec")
    if not isinstance(spec_payload, Mapping):
        raise _bad("'spec' must be a JSON object describing the network")
    spec = parse_spec(spec_payload)
    horizon = _get_int(payload, "horizon", 1000, lo=8, hi=max_horizon)
    seed = _get_int(payload, "seed", 0)
    loss_p = payload.get("loss_p", 0.0)
    if (isinstance(loss_p, bool) or not isinstance(loss_p, (int, float))
            or not (0.0 <= loss_p <= 1.0)):
        raise _bad(f"'loss_p' must be a probability in [0, 1], got {loss_p!r}")
    return spec, horizon, seed, float(loss_p)


def _frac(value: object) -> Optional[str]:
    """Exact rationals cross the wire as strings (``'7/3'``), never floats."""
    if value is None:
        return None
    return str(Fraction(value))


def report_to_json(report) -> dict:
    """A :class:`FeasibilityReport` as the ``/v1/classify`` response body."""
    return {
        "network_class": report.network_class.value,
        "feasible": report.feasible,
        "unsaturated": report.unsaturated,
        "arrival_rate": _frac(report.arrival_rate),
        "max_flow": _frac(report.max_flow_value),
        "f_star": _frac(report.f_star),
        "certified_epsilon": _frac(report.certified_epsilon),
        "cut_kind": report.cut_kind.value,
        "unique_min_cut": report.unique_min_cut,
    }


def parse_region_request(payload: Mapping[str, Any]):
    """Validate a ``/v1/region`` payload into ``(spec, direction)``.

    The spec uses either standard shape, inline or nested under
    ``"spec"``; ``direction`` is an optional top-level object mapping
    injection-node ids to non-negative rates — integers or exact rational
    strings (``"3/2"``).  ``None`` means the nominal injection ray (the
    spec's ``in_rates``).
    """
    spec_payload = payload.get("spec", payload)
    if not isinstance(spec_payload, Mapping):
        raise _bad("'spec' must be a JSON object")
    spec = parse_spec(spec_payload)
    raw = payload.get("direction")
    if raw is None:
        return spec, None
    if not isinstance(raw, Mapping) or not raw:
        raise _bad("'direction' must be a non-empty object mapping node -> rate")
    direction: dict[int, Fraction] = {}
    for node, rate in raw.items():
        try:
            v = int(node)
        except (TypeError, ValueError):
            raise _bad(f"'direction' has non-integer node key {node!r}") from None
        if isinstance(rate, bool) or not isinstance(rate, (int, str)):
            raise _bad(f"direction[{node}] = {rate!r} must be an integer or "
                       "an exact rational string like '3/2'")
        try:
            d = Fraction(rate)
        except (ValueError, ZeroDivisionError):
            raise _bad(f"direction[{node}] = {rate!r} is not a valid rational") from None
        if d < 0:
            raise _bad(f"direction[{node}] = {rate!r} must be nonnegative")
        if v not in spec.in_rates:
            raise _bad(f"'direction' references node {v}, which has no injection "
                       f"(in_rates nodes: {sorted(spec.in_rates)})")
        direction[v] = d
    if all(d == 0 for d in direction.values()):
        raise _bad("'direction' needs at least one positive rate")
    return spec, direction


def region_response(envelope, report=None) -> dict:
    """A :class:`~repro.flow.parametric.BreakpointEnvelope` (plus, along
    the nominal ray, the :class:`~repro.flow.feasibility.RegionReport`)
    as the ``/v1/region`` response body.

    Everything rational crosses the wire as an exact string; the
    classification block is present only when the query ran along the
    nominal injection ray, where λ* ⋚ 1 *is* Definitions 3–4.
    """
    body = {
        "lambda_star": _frac(envelope.lambda_star),
        "arrival_slope": _frac(envelope.arrival_slope),
        "f_star": _frac(envelope.f_star),
        "direction": {str(v): _frac(d) for v, d in envelope.direction},
        "breakpoints": [_frac(b) for b in envelope.breakpoints],
        "segments": [
            {
                "lo": _frac(seg.lo),
                "hi": _frac(seg.hi),
                "slope": _frac(seg.slope),
                "intercept": _frac(seg.intercept),
                "cut_side": list(seg.cut_side),
                "cut_arcs": list(seg.cut_arcs),
            }
            for seg in envelope.segments
        ],
        "algorithm": "dinic",
        "cold_solves": envelope.cold_solves,
        "probes": envelope.probes,
    }
    if report is not None:
        body.update({
            "network_class": report.network_class.value,
            "feasible": report.feasible,
            "unsaturated": report.unsaturated,
            "margin": _frac(report.margin),
            "max_flow": _frac(report.max_flow_value),
            "cut_kind": report.cut_kind.value,
        })
    return body


def simulation_response(result: SimulationResult, *, potentials_tail: int = 32) -> dict:
    """A :class:`SimulationResult` as the ``/v1/simulate`` response body.

    Contains everything needed to check bit-identity against a direct
    scalar run: the verdict, the standard metric row, the final queue
    vector, and the tail of the ``P_t`` series.
    """
    from repro.analysis import summarize

    metrics = asdict(summarize(result))
    return {
        "verdict": asdict(result.verdict),
        "metrics": metrics,
        "final_queues": [int(q) for q in result.final_queues],
        "potentials_tail": [int(p) for p in
                            result.trajectory.potentials[-potentials_tail:]],
    }
