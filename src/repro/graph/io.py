"""Text and binary edge-list I/O.

Real deployments of PDTL ingest graphs from SNAP-style whitespace-separated
edge lists or from binary edge dumps; this module provides both, plus
round-trip helpers used by the tests.  The *processing* format (separate
degree and adjacency binary files) lives in :mod:`repro.graph.binfmt` --
this module only covers interchange formats.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList

__all__ = [
    "read_edgelist_text",
    "write_edgelist_text",
    "read_edgelist_binary",
    "write_edgelist_binary",
]


def write_edgelist_text(
    edgelist: EdgeList, path: str | os.PathLike[str], header: bool = True
) -> Path:
    """Write a whitespace-separated text edge list (SNAP style).

    With ``header=True`` a comment line records the vertex count so that
    isolated trailing vertices survive a round trip.
    """
    path = Path(path)
    with path.open("w", encoding="ascii") as fh:
        if header:
            fh.write(f"# nodes {edgelist.num_vertices} edges {edgelist.num_edges}\n")
        for u, v in edgelist:
            fh.write(f"{u}\t{v}\n")
    return path


def read_edgelist_text(
    path: str | os.PathLike[str], num_vertices: int | None = None
) -> EdgeList:
    """Read a whitespace-separated edge list; ``#``-prefixed lines are comments.

    A ``# nodes N ...`` header, if present, sets the vertex-universe size.
    """
    path = Path(path)
    edges: list[tuple[int, int]] = []
    header_vertices: int | None = None
    with path.open("r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                if len(tokens) >= 2 and tokens[0] == "nodes":
                    try:
                        header_vertices = int(tokens[1])
                    except ValueError:
                        pass
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two vertex ids, got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id in {line!r}"
                ) from exc
            edges.append((u, v))
    if num_vertices is None:
        num_vertices = header_vertices
    return EdgeList(edges, num_vertices)


def write_edgelist_binary(
    edgelist: EdgeList, path: str | os.PathLike[str]
) -> Path:
    """Write a binary edge dump: int64 header (n, m) followed by m (u, v) pairs."""
    path = Path(path)
    with path.open("wb") as fh:
        header = np.array([edgelist.num_vertices, edgelist.num_edges], dtype=np.int64)
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(edgelist.edges, dtype=np.int64).tobytes())
    return path


def read_edgelist_binary(path: str | os.PathLike[str]) -> EdgeList:
    """Read a binary edge dump written by :func:`write_edgelist_binary`."""
    path = Path(path)
    raw = np.fromfile(path, dtype=np.int64)
    if raw.shape[0] < 2:
        raise GraphFormatError(f"{path}: truncated binary edge list")
    n, m = int(raw[0]), int(raw[1])
    expected = 2 + 2 * m
    if raw.shape[0] != expected:
        raise GraphFormatError(
            f"{path}: expected {expected} int64 words, found {raw.shape[0]}"
        )
    edges = raw[2:].reshape(m, 2)
    return EdgeList(edges, n)
