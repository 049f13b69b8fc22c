"""Per-node and per-cluster resource metrics.

The paper's evaluation repeatedly slices the same three quantities --
CPU time, I/O time, network traffic -- per node and per processor
(Figures 6-8, Tables IV and VII).  :class:`NodeMetrics` is the accumulator
for one simulated machine and :class:`ClusterMetrics` the roll-up across
machines; both are plain data with explicit merge rules so they can be
combined across worker processes.  Every modelled time is an integer count
of picoseconds, so a roll-up is the same in any order; ``*_seconds`` values
are derived from them for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.externalmem.iostats import IOStats
from repro.utils import ps_seconds

__all__ = ["NodeMetrics", "ClusterMetrics"]


@dataclass
class NodeMetrics:
    """Resource accounting for one simulated machine.

    ``cpu_ps`` and ``io_stats`` (whose ``device_ps`` is the I/O time) are
    the sums over the node's workers; ``calc_ps`` is the node's *elapsed*
    calculation time, i.e. the maximum over its concurrently running
    workers, which is the quantity the paper calls the node's calculation
    time (the "struggler" node's value determines the cluster-wide
    calculation time).
    """

    node_index: int
    cpu_ps: int = 0
    calc_ps: int = 0
    copy_ps: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    triangles: int = 0
    workers: int = 0
    chunks_completed: int = 0
    chunks_stolen: int = 0
    chunks_retried: int = 0
    io_stats: IOStats = field(default_factory=IOStats)
    worker_calc_ps: list[int] = field(default_factory=list)

    def add_worker(
        self,
        cpu_ps: int,
        triangles: int,
        io_stats: IOStats,
        chunks_completed: int = 1,
        chunks_stolen: int = 0,
        chunks_retried: int = 0,
        failed: bool = False,
    ) -> None:
        """Fold one worker's result into this node's totals: its CPU
        picoseconds, and its I/O counters, whose device time is its I/O.

        The chunk counters come from the dynamic scheduler: how many chunks
        the worker pulled, how many of those a static split would have given
        to someone else (steals), and how many it re-executed after another
        worker was killed (retries).  Static runs use the defaults -- one
        "chunk" (the worker's range), nothing stolen or retried.

        A ``failed`` worker (killed by the failure-injection spec) still
        contributes its partial work to the node totals, but is excluded
        from the per-worker imbalance sample: it is no longer capacity, so
        its small calc time would deflate the mean and overstate the
        max/mean imbalance of the surviving crew.  Idle-but-alive workers
        *are* sampled -- an under-used processor is genuine imbalance.
        """
        calc_ps = cpu_ps + io_stats.device_ps
        self.cpu_ps += cpu_ps
        self.calc_ps = max(self.calc_ps, calc_ps)
        self.triangles += triangles
        self.workers += 1
        self.chunks_completed += chunks_completed
        self.chunks_stolen += chunks_stolen
        self.chunks_retried += chunks_retried
        self.io_stats.merge(io_stats)
        if not failed:
            self.worker_calc_ps.append(calc_ps)

    @property
    def total_ps(self) -> int:
        """Copy time plus elapsed calculation time for this node."""
        return self.copy_ps + self.calc_ps

    def as_dict(self) -> dict[str, float]:
        return {
            "node": self.node_index,
            "cpu_seconds": ps_seconds(self.cpu_ps),
            "io_seconds": self.io_stats.device_seconds,
            "calc_seconds": ps_seconds(self.calc_ps),
            "copy_seconds": ps_seconds(self.copy_ps),
            "bytes_received": self.bytes_received,
            "bytes_sent": self.bytes_sent,
            "triangles": self.triangles,
            "workers": self.workers,
            "chunks_completed": self.chunks_completed,
            "chunks_stolen": self.chunks_stolen,
            "chunks_retried": self.chunks_retried,
        }


@dataclass
class ClusterMetrics:
    """Cluster-wide roll-up of per-node metrics.

    ``setup_io_stats`` isolates the master's *preprocessing* phase --
    staging the input, orienting it and replicating the oriented graph --
    as block counters and modelled device time on the master's disk.  It
    is charged identically on every
    backend (the master preprocesses in its own process, and the
    accounting is below the execution strategy), which is exactly what
    the preprocessing equivalence suite asserts.
    """

    nodes: list[NodeMetrics] = field(default_factory=list)
    setup_io_stats: IOStats = field(default_factory=IOStats)

    def node(self, index: int) -> NodeMetrics:
        """Return (creating if necessary) the metrics of node ``index``."""
        while len(self.nodes) <= index:
            self.nodes.append(NodeMetrics(node_index=len(self.nodes)))
        return self.nodes[index]

    @property
    def total_cpu_seconds(self) -> float:
        return ps_seconds(sum(n.cpu_ps for n in self.nodes))

    @property
    def total_io_seconds(self) -> float:
        return ps_seconds(sum(n.io_stats.device_ps for n in self.nodes))

    @property
    def total_triangles(self) -> int:
        return sum(n.triangles for n in self.nodes)

    @property
    def calc_seconds(self) -> float:
        """Cluster calculation time: the slowest ("struggler") node's value."""
        return ps_seconds(max((n.calc_ps for n in self.nodes), default=0))

    @property
    def total_chunks_completed(self) -> int:
        return sum(n.chunks_completed for n in self.nodes)

    @property
    def total_chunks_stolen(self) -> int:
        return sum(n.chunks_stolen for n in self.nodes)

    @property
    def total_chunks_retried(self) -> int:
        return sum(n.chunks_retried for n in self.nodes)

    def average_copy_seconds(self, exclude_master: bool = True) -> float:
        """Average copy time over the non-master nodes (Table III convention)."""
        nodes = self.nodes[1:] if exclude_master and len(self.nodes) > 1 else self.nodes
        if not nodes:
            return 0.0
        return ps_seconds(sum(n.copy_ps for n in nodes)) / len(nodes)

    def imbalance_ratio(self) -> float:
        """Max/min node calculation time, the skew measure of section V-D5.

        Returns 1.0 for perfectly balanced clusters; the paper quotes the
        discrepancy as a percentage (our 1.13 == their "13% difference").
        """
        times = [n.calc_ps for n in self.nodes if n.workers > 0]
        if not times or min(times) == 0:
            return 1.0
        return max(times) / min(times)

    def worker_imbalance(self) -> float:
        """Max/mean *per-processor* calculation time across the whole cluster.

        This is the quantity dynamic chunk scheduling attacks: 1.0 means
        every processor finished at the same modelled instant; the paper's
        naive split reaches several × on skewed graphs because one
        struggler processor owns the hub vertices' intersections.
        """
        times = [t for n in self.nodes for t in n.worker_calc_ps]
        if not sum(times):
            return 1.0
        return max(times) * len(times) / sum(times)

    def as_rows(self) -> list[dict[str, float]]:
        return [n.as_dict() for n in self.nodes]
