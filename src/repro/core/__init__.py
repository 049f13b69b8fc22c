"""The paper's primary contribution: orientation, modified MGT, and PDTL.

Modules
-------
``config``
    :class:`PDTLConfig` -- the (N nodes, P processors/node, M memory/processor,
    B block size) computational-environment model of section IV.
``triangles``
    Triangle records and the counting / listing / file / per-vertex /
    edge-support sinks that consume reported triangles.
``orientation``
    The degree-based total order ``≺`` (Definition III.2), sequential and
    multicore orientation of an on-disk graph, exactly as the master
    performs it in section IV-B1.
``load_balance``
    Naive equal-edge splits and the in-degree-balanced splits of the
    load-balancing step (evaluated in Figure 9).
``kernels``
    The shared vectorised sorted-intersection kernels (packed-key
    membership, segment gather, range triangle enumeration) used by the
    MGT inner loop and the in-memory baselines alike.
``mgt``
    The modified Massive Graph Triangulation algorithm (Algorithm 2),
    operating over the binary on-disk format with a strict memory budget.
``scheduler``
    Dynamic pull-based chunk scheduling: window-aligned chunking of the
    oriented edge file, the deterministic pull-protocol replay with
    straggler/failure injection, and the picklable per-chunk execution
    tasks every backend (including processes) runs.
``shm``
    Zero-copy shared-memory publication of the oriented adjacency: the
    master publishes degrees/adjacency/offsets into named
    ``multiprocessing.shared_memory`` segments once per run, and workers
    reconstruct read-only numpy views from small descriptors -- the layer
    that removes the duplicated per-worker host reads of the processes
    backend.
``pdtl``
    The PDTL master/worker framework: orientation, graph duplication, edge
    range assignment (static ranges or the dynamic chunk queue), per-core
    MGT execution (serially or on the process pool), and result
    aggregation.
``runner``
    One-call convenience entry points ``count_triangles`` / ``list_triangles``.
"""

from repro.core.config import PDTLConfig
from repro.core.mgt import MGTWorker, mgt_count
from repro.core.orientation import OrientationResult, orient_graph, orient_csr
from repro.core.pdtl import PDTLResult, PDTLRunner
from repro.core.runner import count_triangles, list_triangles
from repro.core.scheduler import (
    Chunk,
    DynamicScheduler,
    chunk_seed,
    make_chunks,
    resolve_chunk_edges,
)
from repro.core.shm import (
    SharedGraphDescriptor,
    SharedGraphView,
    publish_graph,
    shm_available,
)
from repro.core.triangles import (
    CountingSink,
    ListingSink,
    FileSink,
    PerVertexCountSink,
    Triangle,
)

__all__ = [
    "PDTLConfig",
    "Triangle",
    "CountingSink",
    "ListingSink",
    "FileSink",
    "PerVertexCountSink",
    "OrientationResult",
    "orient_graph",
    "orient_csr",
    "MGTWorker",
    "mgt_count",
    "Chunk",
    "DynamicScheduler",
    "chunk_seed",
    "make_chunks",
    "resolve_chunk_edges",
    "SharedGraphDescriptor",
    "SharedGraphView",
    "publish_graph",
    "shm_available",
    "PDTLRunner",
    "PDTLResult",
    "count_triangles",
    "list_triangles",
]
