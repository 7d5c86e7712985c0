"""The service wire protocol: request parsing, payloads, error mapping.

One home for everything both transports share — the HTTP endpoint in
:mod:`repro.service.server` and the in-process
:class:`~repro.service.server.ServiceClient` speak byte-identical
payloads because they call the same functions here.

A run request is a JSON object::

    {"scenario":  {...ScenarioSpec wire form...},   # may embed "churn",
                                  # "events" (trace) or "groups" (multi-group)
     "mechanism": "jv" | {"name": "jv", "params": {...}},
     "params":    {...},          # only with the string mechanism form
     "profiles":  {"1": 4.0} | [{"1": 4.0}, ...],
     "epoch":     0,              # churn/trace scenarios only
     "group":     "g0"}           # multi-group scenarios only (required)

and its response reuses :func:`repro.api.serialize.result_to_dict` — the
exact shape ``python -m repro run --json`` prints, so results round-trip
through :func:`~repro.api.serialize.result_from_dict` bit-for-bit.

Predictable bad inputs raise :class:`ProtocolError` with an HTTP status:
malformed JSON, stray fields, invalid specs and unknown mechanism names
(mirroring the CLI's exit-2 contract — the message lists
``available_mechanisms()``) map to 400; an oversized batch to 413.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.api.registry import available_mechanisms
from repro.api.serialize import profile_from_dict, result_to_dict, summarize_results
from repro.api.spec import MechanismSpec, ScenarioSpec
from repro.dynamic.spec import DynamicScenarioSpec
from repro.observability.tracing import NULL_SPAN
from repro.service.state import scenario_key
from repro.traces.spec import MultiGroupScenarioSpec, TraceScenarioSpec

PROTOCOL_SCHEMA = 1

RUN_FIELDS = ("scenario", "mechanism", "params", "profiles", "epoch", "group")
BATCH_FIELDS = ("requests",)

# Span-context propagation over the wire (see repro.observability.tracing):
# requests may carry a W3C-style ``traceparent`` header naming the trace
# to continue (the router stamps it on every forward), and priced
# responses echo the trace id back so clients — loadgen — can join
# client-side latency to the server-side span logs.  Both are additive:
# response *bodies* stay bit-identical with tracing on or off.
TRACEPARENT_HEADER = "traceparent"
TRACE_ID_HEADER = "X-Repro-Trace-Id"

# The routes that price, hence the ones a request span narrates.
PRICED_PATHS = ("/v1/run", "/v1/batch")


class ProtocolError(Exception):
    """A predictable bad request, carrying the HTTP status to answer with."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class RunRequest:
    """One parsed, validated pricing request (ready to execute)."""

    scenario: ScenarioSpec
    key: str          # the scenario's store key (wire form)
    mechanism: MechanismSpec
    profiles: tuple   # tuple of {station: utility} dicts
    epoch: int | None  # set exactly when the scenario churns
    group: str | None = None  # set exactly on multi-group scenarios

    @property
    def is_dynamic(self) -> bool:
        return self.epoch is not None

    @property
    def route_key(self) -> str:
        """The fleet routing key: the store key, plus the group so the
        groups of one multi-group scenario spread across shards (each
        worker lazily builds only the groups it is routed)."""
        if self.group is None:
            return self.key
        return f"{self.key}|group={self.group}"


def parse_body(raw: bytes | str) -> object:
    """Decode a JSON request body (400 on undecodable/malformed input)."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request body is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON body: {exc}") from exc


def _require_object(data: object, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _parse_scenario(raw: object) -> ScenarioSpec:
    spec_dict = _require_object(raw, "'scenario'")
    try:
        if "groups" in spec_dict:
            return MultiGroupScenarioSpec.from_dict(spec_dict)
        if "events" in spec_dict:
            return TraceScenarioSpec.from_dict(spec_dict)
        if "churn" in spec_dict:
            return DynamicScenarioSpec.from_dict(spec_dict)
        return ScenarioSpec.from_dict(spec_dict)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"invalid scenario: {exc}") from exc


def _parse_mechanism(raw: object, params: object) -> MechanismSpec:
    if isinstance(raw, str):
        if params is None:
            params = {}
        params = _require_object(params, "'params'")
        try:
            spec = MechanismSpec(raw, dict(params))
        except ValueError as exc:
            raise ProtocolError(f"invalid mechanism: {exc}") from exc
    elif isinstance(raw, Mapping):
        if params is not None:
            raise ProtocolError(
                "pass parameters either inline ({'name', 'params'}) or as the "
                "top-level 'params' field, not both")
        try:
            spec = MechanismSpec.from_dict(raw)
        except (KeyError, ValueError, TypeError) as exc:
            raise ProtocolError(f"invalid mechanism: {exc}") from exc
    else:
        raise ProtocolError(
            "'mechanism' must be a registry name or a {'name', 'params'} object")
    known = available_mechanisms()
    if spec.name not in known:
        # Mirrors the CLI's unknown-mechanism contract (exit 2 there,
        # HTTP 400 here), listing what is actually registered.
        raise ProtocolError(
            f"unknown mechanism {spec.name!r}; available: {list(known)}")
    return spec


def _parse_profiles(raw: object) -> tuple:
    if isinstance(raw, Mapping):
        raw = [raw]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ProtocolError(
            "'profiles' must be a JSON object {station: utility} or a list of them")
    if not raw:
        raise ProtocolError("'profiles' must name at least one profile")
    profiles = []
    for idx, profile in enumerate(raw):
        if not isinstance(profile, Mapping):
            raise ProtocolError(
                f"profile #{idx} must be a JSON object {{station: utility}}")
        try:
            profiles.append(profile_from_dict(profile))
        except ValueError as exc:
            raise ProtocolError(
                f"profile #{idx} must map station ids to numeric utilities: {exc}"
            ) from exc
    return tuple(profiles)


def _validate_epoch(epoch: object, n_epochs: int) -> int:
    """Resolve a request's epoch (missing -> 0) and range-check it."""
    if epoch is None:
        epoch = 0
    if not isinstance(epoch, int) or isinstance(epoch, bool):
        raise ProtocolError(f"'epoch' must be an integer, got {epoch!r}")
    if not 0 <= epoch < n_epochs:
        raise ProtocolError(
            f"epoch {epoch} out of range for a {n_epochs}-epoch scenario")
    return epoch


def parse_run_request(data: object) -> RunRequest:
    """Validate one run-request object into a :class:`RunRequest`."""
    data = _require_object(data, "request body")
    stray = sorted(set(data) - set(RUN_FIELDS))
    if stray:
        raise ProtocolError(
            f"unknown request fields: {stray} (known: {list(RUN_FIELDS)})")
    for field in ("scenario", "mechanism", "profiles"):
        if field not in data:
            raise ProtocolError(f"request is missing the {field!r} field")

    scenario = _parse_scenario(data["scenario"])
    mechanism = _parse_mechanism(data["mechanism"], data.get("params"))
    profiles = _parse_profiles(data["profiles"])

    epoch = data.get("epoch")
    group = data.get("group")
    if isinstance(scenario, MultiGroupScenarioSpec):
        if group is None:
            raise ProtocolError(
                "multi-group scenarios require 'group' naming which group "
                f"to price (groups: {list(scenario.group_ids)})")
        if not isinstance(group, str):
            raise ProtocolError(f"'group' must be a string, got {group!r}")
        if group not in scenario.group_ids:
            raise ProtocolError(
                f"unknown group {group!r} "
                f"(groups: {list(scenario.group_ids)})")
        epoch = _validate_epoch(epoch, scenario.n_epochs)
    elif group is not None:
        raise ProtocolError(
            "'group' only applies to multi-group scenarios "
            "(the spec has no 'groups')")
    elif isinstance(scenario, DynamicScenarioSpec):
        epoch = _validate_epoch(epoch, scenario.n_epochs)
    elif epoch is not None:
        raise ProtocolError(
            "'epoch' only applies to churn scenarios (the spec has no 'churn')")

    return RunRequest(scenario=scenario, key=scenario_key(scenario),
                      mechanism=mechanism, profiles=profiles, epoch=epoch,
                      group=group)


def parse_batch_request(data: object, *, max_requests: int) -> list[RunRequest]:
    """Validate a batch envelope: every sub-request parsed up front, so a
    batch is either fully admissible or rejected before any work runs."""
    data = _require_object(data, "request body")
    stray = sorted(set(data) - set(BATCH_FIELDS))
    if stray:
        raise ProtocolError(
            f"unknown batch fields: {stray} (known: {list(BATCH_FIELDS)})")
    raw = data.get("requests")
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes, Mapping)):
        raise ProtocolError("'requests' must be a list of run-request objects")
    if not raw:
        raise ProtocolError("'requests' must name at least one request")
    if len(raw) > max_requests:
        raise ProtocolError(
            f"batch of {len(raw)} requests exceeds the limit of {max_requests}",
            status=413)
    out = []
    for idx, item in enumerate(raw):
        try:
            out.append(parse_run_request(item))
        except ProtocolError as exc:
            raise ProtocolError(
                f"request #{idx}: {exc.message}", status=exc.status) from exc
    return out


# -- response payloads -------------------------------------------------------
def run_payload(request: RunRequest, results: Sequence) -> dict:
    """The response body of one priced request (same result wire format
    as ``python -m repro run --json``, plus the batch summary block)."""
    payload = {
        "schema": PROTOCOL_SCHEMA,
        "scenario": request.scenario.to_dict(),
        "mechanism": request.mechanism.to_dict(),
        "results": [result_to_dict(r) for r in results],
        "summary": summarize_results(results),
    }
    # Echo the *resolved* epoch (a missing wire epoch resolves to 0) and
    # group, so trace replays can attribute every row to its (group,
    # epoch) cell without re-deriving the server's resolution rules.
    if request.epoch is not None:
        payload["epoch"] = request.epoch
    if request.group is not None:
        payload["group"] = request.group
    return payload


def error_payload(message: str) -> dict:
    return {"schema": PROTOCOL_SCHEMA, "error": message}


async def answer_traced(spans, method: str, path: str, trace_context,
                        answer, **attributes) -> tuple[int, dict | str, dict]:
    """``await answer(span)`` under the ``request`` span of a priced
    route (a no-op span elsewhere or untraced), continuing
    ``trace_context``; the span takes the status code (``error`` on a
    5xx) and the answer gains ``X-Repro-Trace-Id``.  The service and the
    fleet router share this lifecycle."""
    span = (spans.span("request", parent=trace_context,
                       attributes={"method": method, "path": path,
                                   **attributes})
            if path in PRICED_PATHS else NULL_SPAN)
    status, payload, headers = await answer(span)
    if span.context is not None:
        span.set("status_code", status)
        span.finish(status="ok" if status < 500 else "error")
        headers = {**headers, TRACE_ID_HEADER: span.trace_id}
    return status, payload, headers
