"""Edge-list container and normalisation utilities.

All generators produce an :class:`EdgeList`; the conversion helpers here
turn arbitrary (possibly noisy) edge sets into the *simple, undirected,
sorted* form PDTL requires:

* no self loops,
* no duplicate edges,
* bi-directional storage (both ``(u, v)`` and ``(v, u)`` present), and
* lexicographic sorting by ``(source, destination)``.

The sortedness requirement is not cosmetic: the paper (section IV-A1)
observes that the MGT implementation silently *misses triangles* when
adjacency lists are unsorted, because it uses sorted-array intersection
rather than hash sets.  We therefore make sortedness an explicit, checked
invariant of the on-disk format (see :mod:`repro.graph.binfmt`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GraphFormatError
from repro.utils import as_rng

__all__ = ["EdgeList"]


def _as_edge_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Coerce ``edges`` into an ``(m, 2)`` int64 array (may be empty)."""
    if isinstance(edges, np.ndarray):
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            return arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError(
                f"edge array must have shape (m, 2), got {arr.shape}"
            )
        return arr
    rows = list(edges)
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(rows, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphFormatError(f"edge list rows must be pairs, got shape {arr.shape}")
    return arr


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique(rows, axis=0)`` for non-negative int64 pairs.

    ``np.unique`` sorts the rows as structured voids, about 20 times
    slower than this on 895,432 rows.  So the rows are packed into keys
    ``u * (max_v + 1) + v``, sorted once, thinned to the first of each run
    of equal keys and unpacked with one ``divmod``: the same rows in the
    same order.  The keys are sorted in place and unpacked into the result
    itself: freed temporaries of several sizes leave the allocator holding
    memory that forked pool workers then inherit.  Rows whose keys would
    not fit int64 take a lexsort instead.
    """
    if rows.shape[0] == 0:
        return rows.reshape(0, 2).copy()
    base = int(rows[:, 1].max()) + 1
    if int(rows[:, 0].max()) * base + base - 1 <= np.iinfo(np.int64).max:
        keys = rows[:, 0] * np.int64(base)
        keys += rows[:, 1]
        keys.sort()
        first = np.empty(keys.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        unique = np.empty((int(np.count_nonzero(first)), 2), dtype=np.int64)
        np.compress(first, keys, out=unique[:, 1])
        np.divmod(unique[:, 1], np.int64(base), out=(unique[:, 0], unique[:, 1]))
        return unique
    ordered = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    first = np.empty(ordered.shape[0], dtype=bool)
    first[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    return ordered[first]


@dataclass
class EdgeList:
    """A list of directed edges stored as an ``(m, 2)`` int64 numpy array.

    ``num_vertices`` is the size of the vertex universe ``[0, n)``; vertices
    with no incident edges are allowed.  The class is deliberately dumb --
    it is a staging area before conversion to :class:`~repro.graph.csr.CSRGraph`
    or to the binary on-disk format.
    """

    edges: np.ndarray
    num_vertices: int

    def __init__(
        self,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        num_vertices: int | None = None,
    ) -> None:
        arr = _as_edge_array(edges)
        if arr.size and arr.min() < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        inferred = int(arr.max()) + 1 if arr.size else 0
        if num_vertices is None:
            num_vertices = inferred
        elif num_vertices < inferred:
            raise GraphFormatError(
                f"num_vertices={num_vertices} is smaller than max vertex id "
                f"{inferred - 1}"
            )
        self.edges = arr
        self.num_vertices = int(num_vertices)

    # -- basic protocol ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of *directed* edge records currently stored."""
        return int(self.edges.shape[0])

    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for u, v in self.edges:
            yield int(u), int(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeList):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self.edges.shape == other.edges.shape
            and bool(np.array_equal(self.edges, other.edges))
        )

    def copy(self) -> "EdgeList":
        return EdgeList(self.edges.copy(), self.num_vertices)

    # -- normalisation steps -----------------------------------------------

    def without_self_loops(self) -> "EdgeList":
        """Return a copy with all ``(u, u)`` edges removed."""
        if self.num_edges == 0:
            return self.copy()
        mask = self.edges[:, 0] != self.edges[:, 1]
        return EdgeList(self.edges[mask], self.num_vertices)

    def deduplicated(self) -> "EdgeList":
        """Return a copy with duplicate directed edges removed (sorted)."""
        if self.num_edges == 0:
            return self.copy()
        return EdgeList(_unique_rows(self.edges), self.num_vertices)

    def symmetrized(self) -> "EdgeList":
        """Return the bi-directional closure: for every ``(u, v)`` also ``(v, u)``.

        Self loops are dropped and duplicates removed; the result is sorted
        lexicographically, i.e. exactly the storage form the paper's binary
        format expects.
        """
        no_loops = self.without_self_loops()
        if no_loops.num_edges == 0:
            return no_loops
        forward = no_loops.edges
        both = np.vstack([forward, forward[:, ::-1]])
        return EdgeList(_unique_rows(both), self.num_vertices)

    def canonical_undirected(self) -> "EdgeList":
        """Return each undirected edge once as ``(min(u,v), max(u,v))``, sorted."""
        no_loops = self.without_self_loops()
        if no_loops.num_edges == 0:
            return no_loops
        lo = np.minimum(no_loops.edges[:, 0], no_loops.edges[:, 1])
        hi = np.maximum(no_loops.edges[:, 0], no_loops.edges[:, 1])
        canon = _unique_rows(np.stack([lo, hi], axis=1))
        return EdgeList(canon, self.num_vertices)

    def sorted(self) -> "EdgeList":
        """Return a copy sorted lexicographically by (source, destination)."""
        if self.num_edges == 0:
            return self.copy()
        order = np.lexsort((self.edges[:, 1], self.edges[:, 0]))
        return EdgeList(self.edges[order], self.num_vertices)

    def is_sorted(self) -> bool:
        """True if edges are lexicographically sorted by (source, destination)."""
        if self.num_edges <= 1:
            return True
        src, dst = self.edges[:, 0], self.edges[:, 1]
        src_nondec = np.all(src[1:] >= src[:-1])
        if not src_nondec:
            return False
        same_src = src[1:] == src[:-1]
        return bool(np.all(dst[1:][same_src] >= dst[:-1][same_src]))

    def is_symmetric(self) -> bool:
        """True if for every ``(u, v)`` the reverse ``(v, u)`` is also present."""
        if self.num_edges == 0:
            return True
        forward = _unique_rows(self.edges)
        backward = _unique_rows(forward[:, ::-1])
        return bool(np.array_equal(forward, backward))

    def has_self_loops(self) -> bool:
        if self.num_edges == 0:
            return False
        return bool(np.any(self.edges[:, 0] == self.edges[:, 1]))

    # -- transformations -----------------------------------------------------

    def relabeled(self, permutation: Sequence[int] | np.ndarray) -> "EdgeList":
        """Apply a vertex permutation: vertex ``v`` becomes ``permutation[v]``.

        Triangle counts are invariant under relabelling; property-based tests
        rely on this method.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape[0] != self.num_vertices:
            raise GraphFormatError(
                f"permutation has length {perm.shape[0]}, expected {self.num_vertices}"
            )
        if not np.array_equal(np.sort(perm), np.arange(self.num_vertices)):
            raise GraphFormatError("permutation must be a bijection on [0, n)")
        if self.num_edges == 0:
            return self.copy()
        return EdgeList(perm[self.edges], self.num_vertices)

    def shuffled(self, seed: int | np.random.Generator | None = 0) -> "EdgeList":
        """Return a copy with edge rows in random order (for robustness tests)."""
        if self.num_edges == 0:
            return self.copy()
        rng = as_rng(seed)
        order = rng.permutation(self.num_edges)
        return EdgeList(self.edges[order], self.num_vertices)

    def subsampled(
        self, fraction: float, seed: int | np.random.Generator | None = 0
    ) -> "EdgeList":
        """Keep each *undirected* edge independently with probability ``fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        canon = self.canonical_undirected()
        if canon.num_edges == 0:
            return canon
        rng = as_rng(seed)
        keep = rng.random(canon.num_edges) < fraction
        return EdgeList(canon.edges[keep], self.num_vertices)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], num_vertices: int | None = None
    ) -> "EdgeList":
        """Build an edge list from an iterable of ``(u, v)`` pairs."""
        return cls(pairs, num_vertices)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "EdgeList":
        return cls(np.empty((0, 2), dtype=np.int64), num_vertices)
