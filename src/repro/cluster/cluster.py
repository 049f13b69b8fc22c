"""The simulated cluster: a set of machines joined by a network.

:class:`Cluster` is the deployment substrate the PDTL master operates on.
It knows how to build itself from a :class:`~repro.core.config.PDTLConfig`
(one machine per node, ``P`` cores and ``M`` memory per core each), how to
duplicate an on-disk graph from the master to every other machine while
charging both the disk and the network models, and how to clean up the
temporary per-machine storage afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.machine import Machine
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.network import Network
from repro.core.config import PDTLConfig
from repro.errors import ConfigurationError
from repro.externalmem.blockio import DiskModel
from repro.graph.binfmt import GraphFile

__all__ = ["Cluster"]


@dataclass
class Cluster:
    """A set of simulated machines (node 0 is the master) plus their network."""

    machines: list[Machine]
    network: Network
    metrics: ClusterMetrics = field(default_factory=ClusterMetrics)

    def __post_init__(self) -> None:
        if not self.machines:
            raise ConfigurationError("a cluster needs at least one machine")
        if self.network.num_nodes != len(self.machines):
            raise ConfigurationError(
                "network size does not match the number of machines"
            )
        for i, machine in enumerate(self.machines):
            if machine.index != i:
                raise ConfigurationError(
                    f"machine at position {i} has index {machine.index}"
                )

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        config: PDTLConfig,
        storage_root: str | Path | None = None,
        disk_model: DiskModel | None = None,
        bandwidth_bytes_per_s: float | None = None,
    ) -> "Cluster":
        """Build a homogeneous cluster matching a :class:`PDTLConfig`."""
        network = Network(num_nodes=config.num_nodes)
        if bandwidth_bytes_per_s is not None:
            for src, dst in network.links:
                network.set_link(src, dst, bandwidth_bytes_per_s=bandwidth_bytes_per_s)
        machines = [
            Machine(
                index=i,
                num_cores=config.procs_per_node,
                memory_per_core=config.memory_per_proc,
                block_size=config.block_size,
                disk_model=disk_model,
                storage_root=storage_root,
            )
            for i in range(config.num_nodes)
        ]
        return cls(machines=machines, network=network)

    # -- basic accessors --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.machines)

    @property
    def master(self) -> Machine:
        return self.machines[0]

    @property
    def total_cores(self) -> int:
        return sum(m.num_cores for m in self.machines)

    @property
    def total_memory(self) -> int:
        return sum(m.total_memory for m in self.machines)

    def machine(self, index: int) -> Machine:
        if not 0 <= index < self.num_nodes:
            raise ConfigurationError(f"no machine with index {index}")
        return self.machines[index]

    # -- graph duplication ---------------------------------------------------------------

    def replicate_graph(self, graph: GraphFile) -> dict[int, GraphFile]:
        """Copy an on-disk graph from the master's device to every machine.

        Returns a mapping node index → that node's local :class:`GraphFile`.
        The master's own copy is the original file (no transfer charged); for
        every other node the bytes cross the simulated network and are
        written to that node's disk, and the modelled transfer time is added
        to the node's ``copy_ps`` -- this is the quantity Table III reports
        as "avg copy time".
        """
        if graph.device is not self.master.device:
            raise ConfigurationError(
                "replicate_graph expects the graph to live on the master's device"
            )
        copies: dict[int, GraphFile] = {0: graph}
        for machine in self.machines[1:]:
            local = graph.copy_to(machine.device, graph.name)
            nbytes = graph.size_bytes + machine.device.file_size(graph.meta_file_name)
            node_metrics = self.metrics.node(machine.index)
            node_metrics.copy_ps += self.network.transfer(
                0, machine.index, nbytes, label="graph-copy"
            )
            node_metrics.bytes_received += nbytes
            master_metrics = self.metrics.node(0)
            master_metrics.bytes_sent += nbytes
            copies[machine.index] = local
        return copies

    def send_configuration(self, node: int, nbytes: int = 64) -> int:
        """Charge the small per-processor configuration message (the C_{i,j}
        boxes of Figure 1)."""
        ps = self.network.transfer(0, node, nbytes, label="configuration")
        self.metrics.node(node).bytes_received += nbytes
        self.metrics.node(0).bytes_sent += nbytes
        return ps

    def send_chunk_grant(self, node: int, nbytes: int = 24) -> int:
        """Charge one master→worker chunk hand-out of the dynamic scheduler.

        Pull-based scheduling trades a little extra coordination traffic
        (one tiny descriptor per chunk instead of one range per processor)
        for balance and fault tolerance; charging each grant makes that
        trade visible in the network metrics.
        """
        ps = self.network.transfer(0, node, nbytes, label="chunk-grant")
        self.metrics.node(node).bytes_received += nbytes
        self.metrics.node(0).bytes_sent += nbytes
        return ps

    def send_result(self, node: int, nbytes: int) -> int:
        """Charge a client→master result message (count or triangle list)."""
        ps = self.network.transfer(node, 0, nbytes, label="result")
        self.metrics.node(0).bytes_received += nbytes
        self.metrics.node(node).bytes_sent += nbytes
        return ps

    # -- lifecycle ----------------------------------------------------------------------

    def cleanup(self) -> None:
        for machine in self.machines:
            machine.cleanup()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.cleanup()
