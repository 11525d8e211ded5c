"""The target registry: every bundled model and system, in one table.

Mocket's per-system input is one spec, one mapping and one cluster
(paper §1, Table 1).  This module writes that triple out once, and
every consumer — ``mocket check/testgen/test/faults/fuzz/soak/conform``,
``mocket lint``/``analyze`` and the chaos and Table-2 scenario replays —
resolves names through it, so one name means one spec everywhere.

* **Models** (:data:`MODELS`) build the specs ``mocket check`` checks.
* **Systems** (:data:`SYSTEMS`) pair an implementation package with the
  model it is tested against, its config class (whose ``bug_*``
  constructor parameters are its known bug flags), mapping builder,
  cluster factory and, for ``mocket soak``, an optional simulation
  factory.

Looking a name up imports that target's packages and nothing else; the
table itself imports no spec or system module.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "MODELS", "SYSTEMS", "System", "UnknownName", "build_model",
    "sim_names", "spec_and_mapping", "target_names",
]


class UnknownName(ValueError):
    """An unknown bug flag for a system (the CLI exits 2 on it)."""


def _raft(**options):
    from ..specs.raft import RaftSpecOptions, build_raft_spec

    return build_raft_spec(RaftSpecOptions(
        max_term=1, max_client_requests=0, candidates=("n1",), **options))


def _zab(**options):
    from ..specs.zab import ZabSpecOptions, build_zab_spec

    return build_zab_spec(ZabSpecOptions(**options))


def _example():
    from ..specs import build_example_spec

    return build_example_spec()


#: model name -> spec builder
MODELS: Dict[str, Callable] = {
    "example": _example,
    "xraft": lambda: _raft(name="xraft-model"),
    "raftkv": lambda: _raft(enable_drop=False, enable_duplicate=False,
                            name="raftkv-model"),
    "zab": lambda: _zab(max_elections=1, max_crashes=0, max_restarts=0,
                        starters=("n3",), name="zab-model"),
}


class System(NamedTuple):
    """One system under test: everything Mocket needs to test it.

    ``config``, ``mapping`` and ``cluster`` name attributes of the
    implementation package ``repro.systems.<name>``.
    """

    name: str            # also its implementation package under repro.systems
    model: str           # the MODELS entry it is tested against
    config: str          # config class
    mapping: str         # (spec, config) -> SpecMapping
    cluster: str         # (node_ids=, config=) -> undeployed Cluster
    sim: Optional[Callable] = None  # (seed, bug, scheduler) -> SimCluster

    @property
    def package(self):
        """The implementation package; lint parses its source."""
        return importlib.import_module(f"{__package__}.{self.name}")

    def bug_flags(self) -> Tuple[str, ...]:
        """The config class's ``bug_*`` constructor parameters."""
        import inspect

        params = inspect.signature(getattr(self.package, self.config)).parameters
        return tuple(name for name in params if name.startswith("bug_"))

    def configure(self, bugs: Sequence[str] = ()):
        """A config instance with the named bug flags switched on."""
        # no bug flags, no ``inspect`` import: start-up stays lean
        known = self.bug_flags() if bugs else ()
        for flag in bugs:
            if flag not in known:
                raise UnknownName(f"unknown bug {flag!r} for {self.name} "
                                  f"(choose from {', '.join(known)})")
        return getattr(self.package, self.config)(**dict.fromkeys(bugs, True))

    def build_mapping(self, spec, config):
        return getattr(self.package, self.mapping)(spec, config)

    def make_cluster(self, servers, config):
        return getattr(self.package, self.cluster)(node_ids=servers,
                                                   config=config)

    def kit(self, bugs: Optional[Sequence[str]] = None):
        """(spec, mapping, cluster factory), as ``mocket test`` runs them."""
        config = self.configure(bugs or ())
        spec = build_model(self.model)
        return (spec, self.build_mapping(spec, config),
                lambda: self.make_cluster(("n1", "n2", "n3"), config))


def _raftkv_sim(seed, bug, scheduler):
    from .raftkv.sim import SimRaftKvConfig, make_sim_raftkv_cluster

    config = SimRaftKvConfig(seed=seed,
                             bug_skip_apply=(bug == "bug_skip_apply"))
    return make_sim_raftkv_cluster(config, scheduler)


#: system name -> entry
SYSTEMS: Dict[str, System] = {entry.name: entry for entry in (
    System("toycache", "example", "ToyCacheConfig",
           "build_toycache_mapping", "make_toycache_cluster"),
    System("pyxraft", "xraft", "XraftConfig",
           "build_xraft_mapping", "make_xraft_cluster"),
    System("raftkv", "raftkv", "RaftKvConfig",
           "build_raftkv_mapping", "make_raftkv_cluster", sim=_raftkv_sim),
    System("minizk", "zab", "MiniZkConfig",
           "build_minizk_mapping", "make_minizk_cluster"),
)}


def sim_names() -> Tuple[str, ...]:
    """Systems ``mocket soak`` can simulate."""
    return tuple(name for name, entry in SYSTEMS.items() if entry.sim)


def target_names() -> Tuple[str, ...]:
    """Names lint, analyze and conform accept: systems first, then the
    models no system shadows (``raftkv`` names both and means the
    system)."""
    return tuple(SYSTEMS) + tuple(m for m in MODELS if m not in SYSTEMS)


def build_model(name: str):
    """The spec ``mocket check NAME`` checks."""
    return MODELS[name]()


def spec_and_mapping(name: str):
    """(spec, mapping) for a lint/analyze/conform target.  A system
    brings its mapping; a bare model has none."""
    if name in SYSTEMS:
        spec, mapping, _factory = SYSTEMS[name].kit()
        return spec, mapping
    return build_model(name), None
