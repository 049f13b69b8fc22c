"""Malformed inputs for the refusal tests: format faults planted in a CSR
graph's lists, and graph files that disagree with their metadata."""

from __future__ import annotations

import bisect
import tempfile

import numpy as np

from repro.core.orientation import degree_order_keys
from repro.errors import GraphFormatError
from repro.externalmem.blockio import BlockDevice
from repro.graph.binfmt import GraphFile, write_graph
from repro.graph.csr import CSRGraph

#: the list faults :func:`plant` makes
LIST_FAULTS = ("duplicate", "loop", "swap")

#: the file faults :func:`corrupt` makes
FILE_FAULTS = ("short adjacency", "short degrees", "degree sum", "negative degree")


def plant(graph: CSRGraph, fault: str, vertex: int) -> CSRGraph:
    """``graph`` with one fault in the list of ``vertex``, built past the
    constructors' checks: ``"duplicate"`` repeats an entry, ``"loop"``
    adds the vertex to its own list and ``"swap"`` swaps two adjacent
    entries.  The entries touched are ones the orientation drops (their
    vertices precede ``vertex`` in the degree order), so every oriented
    list is still sorted and simple."""
    keys = degree_order_keys(graph.degrees)
    lists = [graph.neighbors(u).tolist() for u in range(graph.num_vertices)]
    own = lists[vertex]
    dropped = [i for i, w in enumerate(own) if keys[w] < keys[vertex]]
    if fault == "duplicate":
        own.insert(dropped[0], own[dropped[0]])
    elif fault == "loop":
        own.insert(bisect.bisect(own, vertex), vertex)
    elif fault == "swap":
        i = next(i for i in dropped if i + 1 in dropped)
        own[i], own[i + 1] = own[i + 1], own[i]
    else:
        raise ValueError(f"unknown list fault {fault!r}")
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in lists], out=indptr[1:])
    return CSRGraph(indptr, np.array([w for a in lists for w in a], dtype=np.int64))


def write_graph_error(graph: CSRGraph) -> str | None:
    """The message :func:`write_graph` refuses ``graph`` with, or ``None``."""
    with tempfile.TemporaryDirectory(prefix="pdtl_format_probe_") as root:
        try:
            write_graph(BlockDevice(root, block_size=512), "probe", graph)
        except GraphFormatError as exc:
            return str(exc)
    return None


def corrupt(graph: GraphFile, fault: str) -> str:
    """Make the files of ``graph`` disagree with its metadata as ``fault``
    says; returns the message its reader must raise."""
    n, m = graph.num_vertices, graph.num_edges
    adjacency_path = graph.device.path(graph.adjacency_file_name)
    degree_path = graph.device.path(graph.degree_file_name)
    degrees = np.fromfile(degree_path, dtype=np.int64)
    if fault == "short adjacency":
        np.fromfile(adjacency_path, dtype=np.int64)[:-1].tofile(adjacency_path)
        return (
            f"{graph.adjacency_file_name} holds {8 * (m - 1)} bytes, "
            f"its graph's metadata says {8 * m}"
        )
    if fault == "short degrees":
        degrees[:-1].tofile(degree_path)
        return (
            f"{graph.degree_file_name} holds {8 * (n - 1)} bytes, "
            f"its graph's metadata says {8 * n}"
        )
    if fault == "degree sum":
        degrees[-1] += 1
        degrees.tofile(degree_path)
        return f"degree sum {m + 1} does not match adjacency length {m}"
    if fault == "negative degree":
        # the sum still matches
        degrees[-1] += degrees[0] + 1
        degrees[0] = -1
        degrees.tofile(degree_path)
        return "vertex 0 has negative degree -1"
    raise ValueError(f"unknown file fault {fault!r}")
