"""repro.api — the declarative scenario/mechanism API and session facade.

This is the stable entry path a service speaks:

* :class:`ScenarioSpec` / :class:`MechanismSpec` — frozen,
  JSON-round-trippable descriptions of an instance and of a mechanism
  request (:mod:`repro.api.spec`);
* the mechanism registry — :func:`make_mechanism` /
  :func:`register_mechanism` / :func:`available_mechanisms`, populated by
  every mechanism in :mod:`repro.core` (:mod:`repro.api.registry`);
* :class:`MulticastSession` — a long-lived facade binding one scenario,
  caching the expensive shared state (network, universal trees, metric
  closure, memoised cost-share methods) across ``run``/``run_batch``
  requests (:mod:`repro.api.session`);
* :class:`~repro.api.store.SessionStore` — the bounded, single-flight
  LRU of sessions keyed by scenario wire form, over a caller-supplied
  builder; the service and the multi-group trace replay both keep their
  sessions in one (:mod:`repro.api.store`);
* result wire format — :func:`result_to_dict` & friends
  (:mod:`repro.api.serialize`).

``python -m repro run --scenario spec.json --mechanism jv --profiles
profiles.json --json`` drives this API from the command line.
"""

from repro.api.registry import (
    available_mechanisms,
    make_mechanism,
    register_mechanism,
    registered,
)
from repro.api.serialize import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.api.session import MulticastSession
from repro.api.spec import MechanismSpec, ScenarioSpec

__all__ = [
    "MechanismSpec",
    "MulticastSession",
    "ScenarioSpec",
    "available_mechanisms",
    "make_mechanism",
    "register_mechanism",
    "registered",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
]
