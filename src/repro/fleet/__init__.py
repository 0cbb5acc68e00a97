"""Multi-replica serving: supervision, snapshot distribution, gated rollout.

The fleet layer scales the single-process serving stack horizontally on
one machine: a :class:`~repro.fleet.replica.ReplicaSupervisor` keeps N
``repro serve`` subprocesses alive, a
:class:`~repro.fleet.front.FleetFront` (itself an app-protocol object,
mountable on either serving transport) routes and retries requests
across them, a :class:`~repro.fleet.publisher.SnapshotPublisher` fans
snapshot reloads out and verifies convergence by content digest, and a
:class:`~repro.fleet.controller.FleetController` runs health-gated
rollouts — canary, shadow traffic, promote-or-rollback.

Everything is stdlib-only and testable on one machine; the process
boundary (HTTP over loopback) is the same one a real multi-host fleet
would cross.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "client": ("PooledReplicaClient",),
    "controller": ("FleetController",),
    "front": ("ROUTE_POLICIES", "FleetFront"),
    "publisher": ("PublishReport", "SnapshotPublisher"),
    "replica": ("ReplicaHandle", "ReplicaSupervisor"),
    "ring": ("HashRing",),
    "rollout": (
        "VERDICT_ERROR_RATE", "VERDICT_INSUFFICIENT", "VERDICT_LATENCY", "VERDICT_PASS",
        "RolloutConfig", "RolloutState", "ShadowMirror", "ShadowWindow",
    ),
    "targets": ("ReplicaSet", "ReplicaTarget"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
