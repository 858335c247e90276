"""The one configuration builder: the production replica configuration.

Both runtimes get the same :class:`~repro.ReplicaConfig` (the simulator
through ``SimulationParams(replica=...)``, the TCP runtime through
``NetCluster(config=...)``, which ignores the simulator-only fields).  Only
fields the installed dataclass declares are passed, so a later release that
drops a switch does not break the benchmark; :func:`describe` prints the
effective configuration and names any requested field that was dropped.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict

from repro import CompactionPolicy, ReplicaConfig

#: Fast core, incremental replay, delta + advert gossip, compaction, and
#: same-instant gossip batching in the simulator.  ``batch_replay`` stays
#: off: end to end the batch kernel measured about 1.0x the fast core.
PRODUCTION: Dict[str, Any] = {
    "fast_core": True,
    "batch_replay": False,
    "incremental_replay": True,
    "delta_gossip": True,
    "advert_gossip": True,
    "compaction": CompactionPolicy(),
    "batch_gossip": True,
}


def production_config() -> ReplicaConfig:
    declared = {f.name for f in fields(ReplicaConfig)}
    return ReplicaConfig(**{k: v for k, v in PRODUCTION.items() if k in declared})


def describe(config: ReplicaConfig) -> Dict[str, Any]:
    """The effective configuration as printable values, plus the requested
    fields the installed ``ReplicaConfig`` does not declare."""
    effective = {f.name: repr(getattr(config, f.name)) for f in fields(config)}
    dropped = sorted(set(PRODUCTION) - set(effective))
    return {"effective": effective, "dropped": dropped}
