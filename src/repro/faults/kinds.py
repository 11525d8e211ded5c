"""Vocabulary of the nemesis layer: injection modes and chaos kinds.

Two injection modes, with very different soundness stories:

* **modeled** — the fault is an action of the specification (``Restart``,
  ``DropMessage``, ``DuplicateMessage``).  The planner splices the
  fault's *verified* graph edge into a test-case path, so the derived
  case is still a behaviour of the state space and per-step
  expected-state checking stays sound.
* **chaos** — the fault is *not* in the specification.  Transparent
  kinds (partition + heal, mailbox reorder, one-way link cuts, partial
  partitions, per-link delay) are invisible to the spec's semantics —
  the message bag is order-free and a cut/delay only holds delivery
  until heal — so per-step checking is kept.  Disruptive kinds (bounce,
  crash, message corruption) perturb node or network state outside the
  verified space, so the runner switches the case to *convergence
  mode*: per-step state equality is relaxed and the implementation must
  re-converge to the final verified state within a bounded retry
  budget, or the case is reported.
"""

from __future__ import annotations

import enum

__all__ = [
    "InjectionMode",
    "ChaosKind",
    "TRANSPARENT_KINDS",
    "DISRUPTIVE_KINDS",
    "PARTITION_FAMILY",
]


class InjectionMode(enum.Enum):
    MODELED = "modeled"
    CHAOS = "chaos"


class ChaosKind(enum.Enum):
    """Spec-unmodeled faults the nemesis can apply at runtime."""

    PARTITION = "partition"   # isolate one node behind a symmetric cut
    REORDER = "reorder"       # permute one node's mailbox backlog
    LINK_CUT = "link_cut"     # asymmetric cut: hold src->dst only
    PARTIAL_PARTITION = "partial_partition"  # cut off an arbitrary subset
    DELAY = "delay"           # hold the next N messages on one link
    BOUNCE = "bounce"         # crash + immediate restart (volatile state lost)
    CRASH = "crash"           # crash, never restarted within the case
    CORRUPT = "corrupt"       # corrupt one in-flight message (checksum drop)


# Chaos kinds the specification cannot observe: the message bag is
# order-free and a partition/cut/delay holds (not drops) messages, so a
# correct implementation behaves identically once healed.
TRANSPARENT_KINDS = frozenset({
    ChaosKind.PARTITION,
    ChaosKind.REORDER,
    ChaosKind.LINK_CUT,
    ChaosKind.PARTIAL_PARTITION,
    ChaosKind.DELAY,
})

# Chaos kinds that perturb node or network state outside the verified
# state space; these switch the case to convergence-mode checking.
# CORRUPT is disruptive because the corrupted message is *lost* (the
# receiver's checksum rejects it), which the spec's bag never models.
DISRUPTIVE_KINDS = frozenset({
    ChaosKind.BOUNCE,
    ChaosKind.CRASH,
    ChaosKind.CORRUPT,
})

# Kinds that cut a node set off; a case gets at most one of them, so
# two partitions never overlap (planner and legality both enforce it).
PARTITION_FAMILY = frozenset({
    ChaosKind.PARTITION,
    ChaosKind.PARTIAL_PARTITION,
})
