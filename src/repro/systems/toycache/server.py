"""The Figure 1 cache server implementation.

A single-node "distributed system": clients send data; the server
caches every datum and answers ``Max``/``NotMax``.  Instrumented with
Mocket annotations exactly as the paper instruments its targets —
``msg`` and ``cache`` are traced fields, ``Request`` and ``Respond``
are mapped actions.
"""

from __future__ import annotations

from typing import Optional

from ...core.mapping import mocket_action, traced_field
from ...runtime.cluster import Cluster
from ...runtime.node import Node
from ...specs.example import MAX, NIL, NOT_MAX
from .config import ToyCacheConfig

__all__ = ["CacheServer", "make_toycache_cluster"]


class CacheServer(Node):
    """The server process."""

    msg = traced_field("msg")
    cache = traced_field("cache")

    def __init__(self, node_id: str, cluster: Cluster,
                 config: Optional[ToyCacheConfig] = None):
        super().__init__(node_id, cluster)
        self.config = config or ToyCacheConfig()
        self.msg = NIL
        self.cache = frozenset()

    # -- client API ----------------------------------------------------------
    @mocket_action("Request", params=lambda self, data: {"data": data})
    def request(self, data: int) -> None:
        """A client writes ``data`` (the spec's ``Request`` action)."""
        self.msg = data
        runs = 2 if self.config.bug_double_respond else 1
        if self.config.bug_forget_respond:
            runs = 0
        for _ in range(runs):
            self.spawn(self.respond, name=f"{self.node_id}-respond")

    @mocket_action("Respond")
    def respond(self) -> None:
        """The server caches the datum and answers (the ``Respond`` action)."""
        with self.lock:
            self.cache = self.cache | {self.msg}
            if self.config.bug_wrong_max:
                self.msg = MAX
            else:
                self.msg = MAX if self.msg == max(self.cache) else NOT_MAX


def make_toycache_cluster(config: Optional[ToyCacheConfig] = None,
                          node_ids=None) -> Cluster:
    """A fresh single-server cluster (undeployed).  ``node_ids`` is
    accepted for the registry's cluster signature; the cache is always
    one node named ``server``."""
    cfg = config or ToyCacheConfig()
    return Cluster(["server"], lambda node_id, cluster: CacheServer(node_id, cluster, cfg))
