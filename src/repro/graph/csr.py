"""Compressed-sparse-row (CSR) adjacency for undirected and oriented graphs.

:class:`CSRGraph` is the canonical in-memory representation used throughout
the library: two numpy arrays, ``indptr`` (length ``n + 1``) and ``indices``
(length ``m``), exactly mirroring the paper's on-disk layout of a degree
file plus a concatenated adjacency file.  Adjacency lists are kept sorted
by destination, which the modified MGT requires for its sorted-array
intersections.

The same class represents both the undirected input graph ``G`` (every
undirected edge stored twice) and its orientation ``G*`` (each edge stored
once, from the ``≺``-smaller endpoint to the larger); the
``directed`` flag records which one an instance is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList
from repro.utils import prefix_sums

__all__ = ["CSRGraph", "FORMAT_VIOLATIONS"]

#: The messages of the format checks, in the order they are checked: an
#: unsorted list, then a self loop, then a duplicate edge, each formatted
#: with the first vertex at fault.  :func:`repro.graph.binfmt.write_graph`
#: raises the same ones from the C tier's one-pass check.
FORMAT_VIOLATIONS = (
    "adjacency list of vertex {} is not sorted; "
    "modified MGT requires destination-sorted lists",
    "self loop at vertex {}",
    "duplicate edge out of vertex {}",
)


@dataclass
class CSRGraph:
    """CSR adjacency structure over vertices ``[0, n)``.

    Parameters
    ----------
    indptr:
        int64 array of length ``n + 1``; the neighbours of vertex ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        int64 array of length ``m`` holding destination vertices, sorted
        within each adjacency list.
    directed:
        ``False`` for the bidirectional (undirected) storage of ``G``,
        ``True`` for an orientation ``G*`` where each undirected edge appears
        exactly once.
    """

    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = False
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.shape[0] < 1:
            raise GraphFormatError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if self.indices.ndim != 1:
            raise GraphFormatError("indices must be a 1-D array")
        if self.indptr[-1] != self.indices.shape[0]:
            raise GraphFormatError(
                f"indptr[-1]={int(self.indptr[-1])} does not match "
                f"len(indices)={self.indices.shape[0]}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise GraphFormatError("indices contain out-of-range vertex ids")

    # -- core accessors ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) adjacency entries.

        For an undirected graph this is ``2 * |E|``; for an orientation it is
        ``|E|``.
        """
        return int(self.indices.shape[0])

    @property
    def num_undirected_edges(self) -> int:
        """Number of undirected edges |E|."""
        if self.directed:
            return self.num_edges
        return self.num_edges // 2

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (== degree for undirected storage)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(self.degrees.max())

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search on the sorted adjacency list."""
        nbrs = self.neighbors(u)
        idx = int(np.searchsorted(nbrs, v))
        return idx < nbrs.shape[0] and int(nbrs[idx]) == v

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield every stored (directed) edge in (source, destination) order."""
        for v in range(self.num_vertices):
            for w in self.neighbors(v):
                yield v, int(w)

    def edge_array(self) -> np.ndarray:
        """Return all stored edges as an ``(m, 2)`` array, source-major order."""
        if self.num_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        return np.stack([sources, self.indices], axis=1)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every stored edge, in storage order (length m)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)

    # -- invariants ------------------------------------------------------------

    def check_sorted_adjacency(self) -> None:
        """Raise :class:`GraphFormatError` unless every adjacency list is sorted.

        This is the invariant whose violation makes the original MGT binary
        miss triangles (paper section IV-A1); we check it eagerly at the
        format boundary.
        """
        if self.num_edges == 0:
            return
        diffs = np.diff(self.indices)
        # boundaries between adjacency lists are allowed to decrease
        boundary = np.zeros(self.num_edges - 1, dtype=bool)
        boundary_positions = self.indptr[1:-1] - 1
        boundary_positions = boundary_positions[
            (boundary_positions >= 0) & (boundary_positions < self.num_edges - 1)
        ]
        boundary[boundary_positions] = True
        bad = (diffs < 0) & ~boundary
        if np.any(bad):
            v = int(np.searchsorted(self.indptr, np.nonzero(bad)[0][0], side="right")) - 1
            raise GraphFormatError(FORMAT_VIOLATIONS[0].format(v))

    def check_simple(self) -> None:
        """Raise unless the graph has no self loops and no duplicate edges."""
        if self.num_edges == 0:
            return
        sources = self.edge_sources()
        loops = np.nonzero(self.indices == sources)[0]
        if loops.size:
            raise GraphFormatError(FORMAT_VIOLATIONS[1].format(int(sources[loops[0]])))
        # duplicates: equal consecutive destinations within one adjacency list
        same_dst = np.nonzero(np.diff(self.indices) == 0)[0]
        if same_dst.size:
            same_src = sources[same_dst] == sources[same_dst + 1]
            if np.any(same_src):
                v = int(sources[same_dst[np.argmax(same_src)]])
                raise GraphFormatError(FORMAT_VIOLATIONS[2].format(v))

    def is_undirected_consistent(self) -> bool:
        """True when every stored edge has its reverse also stored."""
        edges = self.edge_array()
        if edges.shape[0] == 0:
            return True
        forward = set(map(tuple, edges.tolist()))
        return all((v, u) in forward for u, v in forward)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_edgelist(
        cls, edgelist: EdgeList, directed: bool = False, symmetrize: bool = True
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        With ``symmetrize=True`` (the default for undirected use) the edge
        list is first converted to its simple bidirectional closure.  With
        ``directed=True`` the rows are taken as-is (after dedup/sort), which
        is how orientations are materialised.
        """
        if directed:
            clean = edgelist.without_self_loops().deduplicated().sorted()
        elif symmetrize:
            clean = edgelist.symmetrized()
        else:
            clean = edgelist.without_self_loops().deduplicated().sorted()
        n = clean.num_vertices
        if clean.num_edges == 0:
            return cls(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64), directed)
        counts = np.bincount(clean.edges[:, 0], minlength=n)
        indptr = prefix_sums(counts)
        indices = clean.edges[:, 1].astype(np.int64, copy=True)
        return cls(indptr, indices, directed)

    @classmethod
    def from_arrays(
        cls, degrees: np.ndarray, adjacency: np.ndarray, directed: bool = False
    ) -> "CSRGraph":
        """Build from a degree array and a concatenated adjacency array.

        This is the in-memory twin of the on-disk ``.deg`` / ``.adj`` pair.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        adjacency = np.asarray(adjacency, dtype=np.int64)
        if int(degrees.sum()) != adjacency.shape[0]:
            raise GraphFormatError(
                f"sum of degrees ({int(degrees.sum())}) does not match adjacency "
                f"length ({adjacency.shape[0]})"
            )
        return cls(prefix_sums(degrees), adjacency.copy(), directed)

    @classmethod
    def empty(cls, num_vertices: int = 0, directed: bool = False) -> "CSRGraph":
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            directed,
        )

    # -- conversions -------------------------------------------------------------

    def to_edgelist(self) -> EdgeList:
        return EdgeList(self.edge_array(), self.num_vertices)

    def to_networkx(self):  # pragma: no cover - thin convenience wrapper
        """Convert to a :mod:`networkx` graph (DiGraph when oriented)."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        g.add_edges_from(self.iter_edges())
        return g

    def memory_bytes(self) -> int:
        """Approximate resident size of the CSR arrays in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and bool(np.array_equal(self.indptr, other.indptr))
            and bool(np.array_equal(self.indices, other.indices))
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"CSRGraph(n={self.num_vertices}, stored_edges={self.num_edges}, "
            f"{kind})"
        )
