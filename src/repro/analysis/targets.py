"""Resolving lint target names to :class:`LintContext` objects.

Names and specs come from :mod:`repro.systems.registry`, the table
every ``mocket`` subcommand resolves through, so a system target is
linted against the spec and mapping ``mocket test`` runs, plus the
:class:`ImplModel` parsed from its package.  A bare model target
yields the specification alone; only the spec rules apply.
"""

from __future__ import annotations

import os
from typing import List

from ..systems import registry
from .astmodel import ImplModel
from .engine import LintContext

__all__ = ["resolve", "all_targets"]


def resolve(name: str) -> LintContext:
    """Build the lint context for one target name."""
    spec, mapping = registry.spec_and_mapping(name)
    if mapping is None:
        return LintContext(name, spec)
    package = os.path.dirname(registry.SYSTEMS[name].package.__file__)
    return LintContext(name, spec, mapping, ImplModel.from_package(package))


def all_targets() -> List[str]:
    """Every bundled target name, systems first."""
    return list(registry.target_names())
