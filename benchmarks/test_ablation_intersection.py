"""Ablation -- sorted-array intersection vs hash-set membership (section IV-A1).

The paper's key implementation observation about MGT: replacing the sorted
arrays with "sets and maps of any kind, from std::unordered_set to
google::dense_hash_set" made their implementation more than 10x slower.
This ablation evaluates the same intersection workload (every oriented
edge's ``N⁺(u) ∩ E_v`` style lookup) with

* the library's vectorised sorted-array binary search (what the MGT worker
  actually executes), and
* Python ``set`` membership per element (the hash-structure alternative).

Both must produce identical counts; the timing ratio is *reported* rather
than asserted, because the paper's >10x gap is specific to C++ hash
containers (allocation churn and cache misses), whereas CPython's ``set``
is itself a tuned C structure -- at this substrate the two strategies land
within a small factor of each other.  EXPERIMENTS.md records this as a
deliberately non-asserted shape.

The compiled tier's MGT kernels test membership against a *mark array*:
``N⁺(u)`` (or ``E_v``) is marked in a scratch array with one entry per
vertex id, and each other list is walked against it.  That is not the
hash container section IV-A1 rejects.  The address of a mark is the
vertex id itself, so there is no hashing, no probing and no collision;
the array is allocated once per kernel call and reused for every cone,
so there is no allocation per element or per set; and the lists are
still the sorted adjacency arrays, read in order, that the paper's
modified MGT requires (the model charges the same sorted-array operation
count on either tier).  Schank and Wagner's experimental study of
triangle listing (WEA 2005) separates the forward algorithm's merge from
exactly this kind of marked membership test.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import write_result

from repro.analysis.report import format_table
from repro.core.orientation import orient_csr


def _sorted_array_intersections(oriented) -> tuple[int, float]:
    """The library's strategy: batched binary search over sorted adjacency.

    This mirrors what ``MGTWorker._process_block`` does with the whole graph
    resident: gather every pair's out-list, pack (u, w) keys, and resolve all
    memberships with one ``searchsorted`` against the sorted edge-key array.
    """
    indptr, indices = oriented.indptr, oriented.indices
    n = oriented.num_vertices
    start = time.perf_counter()
    degrees = (indptr[1:] - indptr[:-1]).astype(np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # candidate pairs (u, v): every oriented edge
    pair_u, pair_v = sources, indices
    seg_lengths = degrees[pair_v]
    total_elems = int(seg_lengths.sum())
    bounds = np.zeros(pair_v.shape[0] + 1, dtype=np.int64)
    np.cumsum(seg_lengths, out=bounds[1:])
    flat = np.repeat(indptr[pair_v] - bounds[:-1], seg_lengths) + np.arange(
        total_elems, dtype=np.int64
    )
    ev_all = indices[flat]
    pair_ids = np.repeat(np.arange(pair_v.shape[0], dtype=np.int64), seg_lengths)
    edge_keys = sources * n + indices  # sorted because adjacency is sorted
    queries = pair_u[pair_ids] * n + ev_all
    pos = np.searchsorted(edge_keys, queries)
    pos[pos >= edge_keys.shape[0]] = edge_keys.shape[0] - 1
    total = int(np.count_nonzero(edge_keys[pos] == queries))
    return total, time.perf_counter() - start


def _hash_set_intersections(oriented) -> tuple[int, float]:
    indptr, indices = oriented.indptr, oriented.indices
    start = time.perf_counter()
    adjacency_sets = [
        set(indices[indptr[u] : indptr[u + 1]].tolist())
        for u in range(oriented.num_vertices)
    ]
    total = 0
    for u in range(oriented.num_vertices):
        out_u = indices[indptr[u] : indptr[u + 1]]
        set_u = adjacency_sets[u]
        for v in out_u:
            for w in indices[indptr[v] : indptr[v + 1]].tolist():
                if w in set_u:
                    total += 1
    return total, time.perf_counter() - start


def test_ablation_sorted_arrays_vs_hash_sets(
    benchmark, datasets, reference_counts, results_dir
):
    name = "twitter"

    def run():
        oriented = orient_csr(datasets[name])
        count_sorted, sorted_seconds = _sorted_array_intersections(oriented)
        count_hash, hash_seconds = _hash_set_intersections(oriented)
        assert count_sorted == count_hash == reference_counts[name]
        return [
            {
                "Strategy": "sorted arrays (MGT's choice)",
                "seconds": round(sorted_seconds, 4),
                "triangles": count_sorted,
            },
            {
                "Strategy": "hash sets",
                "seconds": round(hash_seconds, 4),
                "triangles": count_hash,
            },
            {
                "Strategy": "slowdown of hash sets",
                "seconds": round(hash_seconds / max(sorted_seconds, 1e-9), 2),
                "triangles": None,
            },
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        results_dir,
        "ablation_intersection",
        format_table(rows, title="Ablation (section IV-A1): sorted arrays vs hash sets"),
    )
    # both strategies are exact; the timing ratio is reported (see module
    # docstring for why the paper's 10x ordering is not asserted here)
    assert rows[0]["triangles"] == rows[1]["triangles"]
    assert rows[0]["seconds"] > 0 and rows[1]["seconds"] > 0
