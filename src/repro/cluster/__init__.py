"""Simulated distributed substrate: machines, disks, network links, metrics.

The paper evaluates PDTL on Amazon EC2 instances and local clusters; this
reproduction replaces the physical cluster with a deterministic simulation
that preserves the quantities the evaluation reports:

* every :class:`~repro.cluster.machine.Machine` owns a block device (its
  local disk, since the paper stores a graph copy locally on every node),
  a core count and a per-core memory budget;
* the :class:`~repro.cluster.network.Network` models point-to-point links
  with bandwidth and latency, and accounts every byte the master ships to
  the clients -- the ``Θ(N·(P+|E|)+T)`` network-traffic bound of
  Theorem IV.3 is checked against these counters;
* :class:`~repro.cluster.metrics.NodeMetrics` accumulates per-node CPU
  seconds, I/O seconds and block counts, which regenerate the CPU-vs-I/O
  breakdowns of Figures 6-8 and Tables IV/VII;
* :mod:`~repro.cluster.executor` runs the per-core MGT jobs either
  serially (deterministic, used in tests) or on a persistent process pool
  with one worker per usable CPU (true parallelism for the wall-clock
  benchmarks).
"""

from repro.cluster.cluster import Cluster
from repro.cluster.executor import (
    ExecutionBackend,
    run_task_queue,
    shutdown_process_pool,
)
from repro.cluster.machine import Machine
from repro.cluster.metrics import ClusterMetrics, NodeMetrics
from repro.cluster.network import Network, NetworkLink

__all__ = [
    "Cluster",
    "Machine",
    "Network",
    "NetworkLink",
    "NodeMetrics",
    "ClusterMetrics",
    "ExecutionBackend",
    "run_task_queue",
    "shutdown_process_pool",
]
