"""Spec↔implementation mapping for the toy cache server."""

from __future__ import annotations

from typing import Optional

from ...core.mapping import SpecMapping
from ...specs.example import build_example_spec
from ...tlaplus import Specification

__all__ = ["build_toycache_mapping"]


def build_toycache_mapping(spec: Optional[Specification] = None, config=None,
                           data=(1, 2)) -> SpecMapping:
    """The mapping between the Figure 1 spec and :class:`CacheServer`.

    ``msg``/``cache`` map to the server's traced fields; ``stage`` is
    auxiliary (never mapped); ``Request`` is a user request driven by a
    client script; ``Respond`` is a spontaneous single-node action.
    ``spec`` defaults to the Figure 1 spec over ``data``; ``config`` is
    accepted for the registry's ``(spec, config)`` signature, but no bug
    flag changes the mapping.
    """
    if spec is None:
        spec = build_example_spec(data=data)
    mapping = SpecMapping(spec)
    mapping.map_variable("msg")
    mapping.map_variable("cache")

    def run_request(cluster, params, occurrence):
        cluster.node("server").request(params["data"])

    mapping.map_user_request("Request", run_request)
    mapping.map_action("Respond")
    mapping.bind_default_events()
    mapping.validate()
    return mapping
