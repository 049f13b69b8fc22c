"""Simulated point-to-point network between cluster machines.

The PDTL protocol's network usage is simple but large: the master ships
the whole oriented graph to every client (``N · |E|`` traffic), sends each
processor its configuration (``N · P`` messages) and receives back the
triangle counts (or, for listing, the triangle lists, the ``T`` term of
Theorem IV.3).  :class:`Network` models each master→client link with a
bandwidth/latency pair, records every transfer, and converts byte counts
into modelled transfer picoseconds -- the quantity Table III reports as
per-node copy time.

Links can have different bandwidths, which is how the benchmark for the
Yahoo copy-time anomaly (the master's disk being busy while copying)
injects a slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetworkError
from repro.utils import check_non_negative, ps_per_unit, whole_ps

__all__ = ["NetworkLink", "Network", "TransferRecord"]

#: Default link model: 10 Gigabit Ethernet as on the paper's EC2 instances.
DEFAULT_BANDWIDTH_BYTES_PER_S = 10e9 / 8
DEFAULT_LATENCY_S = 1e-4


@dataclass
class NetworkLink:
    """A directed link between two nodes with a simple cost model.

    A zero bandwidth is free; a negative bandwidth or latency is refused.
    """

    src: int
    dst: int
    bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH_BYTES_PER_S
    latency_s: float = DEFAULT_LATENCY_S

    def __post_init__(self) -> None:
        check_non_negative(
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s, latency_s=self.latency_s
        )

    def transfer_ps(self, nbytes: int) -> int:
        """Modelled picoseconds to push ``nbytes`` over this link: whole
        picoseconds per byte and per message, at the link's rates as they
        stand now (:meth:`Network.set_link` changes them in place)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes * ps_per_unit(self.bandwidth_bytes_per_s) + whole_ps(self.latency_s)


@dataclass(frozen=True)
class TransferRecord:
    """One recorded transfer (for the traffic-accounting tests)."""

    src: int
    dst: int
    nbytes: int
    ps: int
    label: str


@dataclass
class Network:
    """All links of a simulated cluster plus transfer accounting."""

    num_nodes: int
    links: dict[tuple[int, int], NetworkLink] = field(default_factory=dict)
    transfers: list[TransferRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise NetworkError("a network needs at least one node")
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                if src != dst and (src, dst) not in self.links:
                    self.links[(src, dst)] = NetworkLink(src=src, dst=dst)

    def link(self, src: int, dst: int) -> NetworkLink:
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise NetworkError("no link from a node to itself")
        return self.links[(src, dst)]

    def set_link(
        self,
        src: int,
        dst: int,
        bandwidth_bytes_per_s: float | None = None,
        latency_s: float | None = None,
    ) -> None:
        """Override the cost model of one link (used by the skewed-copy
        benches); a negative bandwidth or latency is refused."""
        link = self.link(src, dst)
        if bandwidth_bytes_per_s is None:
            bandwidth_bytes_per_s = link.bandwidth_bytes_per_s
        if latency_s is None:
            latency_s = link.latency_s
        check_non_negative(bandwidth_bytes_per_s=bandwidth_bytes_per_s, latency_s=latency_s)
        link.bandwidth_bytes_per_s, link.latency_s = bandwidth_bytes_per_s, latency_s

    def transfer(self, src: int, dst: int, nbytes: int, label: str = "") -> int:
        """Record a transfer and return its modelled duration in picoseconds.

        A transfer from a node to itself (the master "sending" to its own
        local disk) is free and recorded with zero time, matching the paper's
        convention of not charging the master a copy.
        """
        self._check_node(src)
        self._check_node(dst)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        ps = 0 if src == dst else self.link(src, dst).transfer_ps(nbytes)
        self.transfers.append(TransferRecord(src, dst, nbytes, ps, label))
        return ps

    # -- accounting -----------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """All bytes that actually crossed a link (self-transfers excluded)."""
        return sum(t.nbytes for t in self.transfers if t.src != t.dst)

    @property
    def total_messages(self) -> int:
        return sum(1 for t in self.transfers if t.src != t.dst)

    def bytes_received_by(self, node: int) -> int:
        return sum(t.nbytes for t in self.transfers if t.dst == node and t.src != node)

    def bytes_sent_by(self, node: int) -> int:
        return sum(t.nbytes for t in self.transfers if t.src == node and t.dst != node)

    def bytes_by_label(self, label: str) -> int:
        return sum(t.nbytes for t in self.transfers if t.label == label and t.src != t.dst)

    def reset(self) -> None:
        self.transfers.clear()

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(
                f"node {node} out of range for a {self.num_nodes}-node network"
            )
