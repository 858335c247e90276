"""The correctness gate: untimed checks every run's outputs must pass.

A failed check raises :class:`CheckFailed`; the benchmark then reports
``"correct": false`` and exits non-zero.  The Section 7/8 invariant checker
is not run here (it does not fit in memory at benchmark history sizes); it
stays in the repository's tests.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.common import OperationId
from repro.conformance.oracles import witness_order
from repro.verification.serializability import check_recorded_trace


class CheckFailed(AssertionError):
    """The program's outputs are wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def surviving(cluster, lost: Set[OperationId], stuck: Set[OperationId]):
    return [op for op_id, op in cluster.requested.items() if op_id not in lost | stuck]


def converged(cluster, operations: Iterable) -> bool:
    """Does every replica know every one of *operations* stable?"""
    operations = list(operations)
    return all(
        all(replica.knows_stable(op) for op in operations)
        for replica in cluster.replicas.values()
    )


def check_answered(cluster, stuck: Set[OperationId]) -> None:
    """Every survivable operation was answered and none failed."""
    unanswered = set(cluster.requested) - set(cluster.responded)
    require(unanswered <= stuck, f"{len(unanswered - stuck)} survivable operations unanswered")
    require(not cluster.failed, f"{len(cluster.failed)} operations NACK-failed")


def check_states_agree(cluster) -> None:
    """All replicas replay the history to the same state."""
    states = [replica.replayed_state() for replica in cluster.replicas.values()]
    require(all(state == states[0] for state in states), "replica states diverged")


def check_serializable(cluster, lost: Set[OperationId], stuck: Set[OperationId]) -> None:
    """The Theorem 5.8 oracle: the minimum-label eventual order over the
    surviving operations explains every strict response."""
    witness = witness_order(cluster, lost | stuck)
    check_recorded_trace(cluster.data_type, cluster.trace, witness=witness)
