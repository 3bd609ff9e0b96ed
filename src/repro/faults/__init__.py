"""Deterministic fault injection and failure detection.

FalconFS's MNodes inherit PostgreSQL primary-standby replication
(§4.3/§4.4 of the paper), and :mod:`repro.storage.replication`
implements the log shipping — this package supplies the rest of the
failure story, as reproducible simulation components:

* :class:`FaultInjector` — schedules declarative nemesis events
  (crashes, hangs, partitions, gray failures) whose omitted victims are
  drawn from the cluster's seeded RNG streams at scheduling time, so a
  failure schedule is part of the experiment seed;
* :class:`FailureDetector` — the coordinator's heartbeat/lease monitor:
  periodic pings with a per-ping timeout, a consecutive-miss threshold,
  and an ``on_failure`` hook that drives promotion (by default the
  cluster's full :meth:`~repro.core.cluster.FalconCluster.fail_over`
  recovery path).

The network layer (:class:`repro.net.Network`) models the faults
themselves: traffic to or from a down node is black-holed, which the
deadline/retry machinery in :mod:`repro.obs.retry` converts into
timeouts and transparent retries against the promoted standby.
"""

from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector

__all__ = ["FailureDetector", "FaultInjector"]
