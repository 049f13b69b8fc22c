"""C (cffi) implementations of the hot kernels, bit-identical to numpy.

This is the compiled kernel tier: every dispatched primitive and fused
loop written once as C and built with cffi's out-of-line API mode into an
extension module cached on disk (``PDTL_KERNEL_CACHE`` or a per-user
temp directory, keyed by a hash of the source).  The first process to
run pays one ``gcc`` invocation (~1-2 s); every later process loads the
cached ``.so``.

Semantics are pinned to the numpy twins in
:data:`repro.core.kernels.NUMPY_IMPLS`:

* membership-style intersection counts each *query* element independently
  (duplicate queries each count, duplicate haystack entries do not);
* the kernels that test many lists against one list mark that list once
  in a scratch array indexed by vertex id and walk each other list
  against the mark (``PDTL_MARKED_WALK``): the u-major ones
  (``triangle_range``, ``mgt_block_scan``, ``triangle_edge_ids``) mark
  ``N⁺(u)`` once per cone, ``mgt_chunk_scan`` marks ``E_v`` once per
  window vertex, and each clears its marks before the next.  A hit is a
  walked entry that is marked.  The u-major walks keep the membership
  semantics above (the walked lists hold the queries); the chunk scan
  walks ``N(u)`` against the marked ``E_v``, which finds the same hits
  in the same order on strictly increasing lists, the format
  ``write_graph`` checks every oriented file for.  The scratch is
  allocated per call, except ``mgt_block_scan``'s: the streaming scan
  calls it once per scan block of every window, so it takes the
  caller's all-zero array and leaves it all zero.  The scratch sits
  outside the modelled budget like the worker's cached offsets: the
  operation count and the budget stay those of the paper's sorted-array
  MGT (section IV-A1).  Every id is tested against
  ``[0, n)`` before the scratch is touched at it, and an id outside
  raises :class:`~repro.errors.GraphFormatError`;
* the one-pair kernels ``edge_intersections`` and
  ``edge_common_neighbors`` reuse no list, so they keep the galloping/
  merge walks ``pdtl_isect_count`` and ``PDTL_ISECT_WALK``;
* emission order of ``triangle_range``/``mgt_block_scan`` triples is the
  numpy gather order: adjacency entries by (source, position), hits within
  an entry in ``N⁺(v)`` order; ``mgt_chunk_scan`` scans every memory
  window of a chunk in one call, walks each window's in-lists v-major,
  prefetching along them, and restores that order per window with a
  stable sort by window and cone; asked to, it also times each window,
  which a traced run's ``window`` spans report;
  ``edge_common_neighbors`` emits owner-major with ``ws`` in ``N(v)`` order;
* ``operations`` is the deterministic scanned + gathered work measure, so
  modelled CPU seconds are identical under either tier;
* ``edge_support_accumulate`` searches each pair in its source's row of
  the key array only (the rows are the oriented graph's offsets, because
  key position ``p`` is adjacency position ``p``), counts a pair with an
  id outside the graph as no edge, and rolls back every applied increment
  before reporting a bad pair, matching the numpy sink's
  check-before-mutate contract;
* the master's preprocessing kernels match the numpy code they replace:
  ``orient_range`` keeps the entries the orientation's numpy filter keeps,
  in storage order, and reports an id outside the graph before reading at
  it; ``in_lists`` builds the published in-lists and packed keys byte for
  byte; ``csr_violations`` finds the first vertex of each format
  violation, so ``write_graph`` raises the numpy checks' error.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import tempfile
from typing import Callable

import numpy as np

from repro.core import kernels
from repro.errors import GraphFormatError

_MODULE_NAME = "_pdtl_kernels_cffi"

#: what a marked-walk kernel returns at a vertex id outside the graph
#: (``PDTL_BAD_ID`` in the C source)
_BAD_ID = -1

_CDEF = """
int64_t pdtl_sorted_membership(const int64_t *hay, int64_t nh,
                               const int64_t *q, int64_t nq, uint8_t *out);
int64_t pdtl_triangle_gathered(const int64_t *indptr, const int64_t *indices,
                               int64_t n, int64_t lo, int64_t hi);
int64_t pdtl_triangle_count(const int64_t *indptr, const int64_t *indices, int64_t n,
                            int64_t lo, int64_t hi, uint8_t *mark, int64_t *ops);
int64_t pdtl_triangle_list(const int64_t *indptr, const int64_t *indices, int64_t n,
                           int64_t lo, int64_t hi, uint8_t *mark, int64_t *cones,
                           int64_t *vs, int64_t *ws, int64_t *ops);
int64_t pdtl_edge_intersections(const int64_t *indptr, const int64_t *indices,
                                const int64_t *us, const int64_t *vs,
                                int64_t ne, int64_t *per_edge);
int64_t pdtl_edge_common_neighbors(const int64_t *indptr, const int64_t *indices,
                                   const int64_t *us, const int64_t *vs,
                                   int64_t ne, int64_t *owners, int64_t *ws);
void pdtl_mgt_block_bound(const int64_t *block_adj, const int64_t *block_offsets,
                          int64_t nbv, int64_t vlow, int64_t vhigh,
                          const int64_t *win_degrees,
                          int64_t *pairs, int64_t *total);
int64_t pdtl_mgt_block_scan(const int64_t *block_adj, const int64_t *block_offsets,
                            int64_t nbv, const int64_t *edg,
                            int64_t vlow, int64_t vhigh,
                            const int64_t *win_offsets, const int64_t *win_degrees,
                            int64_t n, uint8_t *mark,
                            int64_t want, int64_t *cones, int64_t *vs, int64_t *ws,
                            int64_t *pairs, int64_t *total);
int64_t pdtl_mgt_chunk_scan(const int64_t *offsets, const int64_t *adjacency,
                            const int64_t *in_offsets, const int64_t *in_sources,
                            int64_t n, uint8_t *mark,
                            const int64_t *bounds, const int64_t *vlows,
                            const int64_t *vhighs, int64_t nwin, int64_t want,
                            int64_t *cones, int64_t *vs, int64_t *ws,
                            int64_t *window_hits, int64_t *window_pairs,
                            double *window_seconds, int64_t *pairs, int64_t *total);
int64_t pdtl_edge_support_accumulate(const int64_t *edge_keys, int64_t m,
                                     const int64_t *rows, int64_t nvert,
                                     const int64_t *us, const int64_t *vs,
                                     const int64_t *ws, int64_t n, int64_t *support);
int64_t pdtl_truss_peel_level(int64_t k, uint8_t *alive, int64_t *support,
                              int64_t *trussness, const int64_t *inc_ptr,
                              const int64_t *inc_tri, const int64_t *tri_edges,
                              uint8_t *tri_alive, int64_t m,
                              int64_t *frontier, uint8_t *in_touched,
                              int64_t *rounds_out);
int64_t pdtl_triangle_edge_ids(const int64_t *indptr, const int64_t *indices,
                               const int64_t *keys, const int64_t *row_start,
                               int64_t n, int64_t lo, int64_t hi,
                               int64_t *slot_to_id, int64_t *mark, int64_t *out);
void pdtl_incidence_csr(const int64_t *flat, int64_t nslots, int64_t m,
                        int64_t *inc_ptr, int64_t *inc_tri, int64_t *cursor);
int64_t pdtl_orient_range(const int64_t *adj, const int64_t *keys, int64_t n,
                          const int64_t *offsets, int64_t lo, int64_t hi,
                          int64_t *out_degrees, int64_t *kept);
int64_t pdtl_in_lists(const int64_t *offsets, const int64_t *adj, int64_t n,
                      int64_t *key, int64_t *in_offsets, int64_t *in_sources);
void pdtl_csr_violations(const int64_t *indptr, const int64_t *indices, int64_t n,
                         int64_t *out);
"""

_C_SOURCE = r"""
#include <stdint.h>
#include <time.h>

/* first index with a[i] >= key */
static int64_t pdtl_lower_bound(const int64_t *a, int64_t n, int64_t key) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (a[mid] < key) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* first index with a[i] > key (avoids key + 1 overflow at INT64_MAX) */
static int64_t pdtl_upper_bound(const int64_t *a, int64_t n, int64_t key) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (a[mid] <= key) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* |{ j : b[j] in a }| for sorted a, b -- numpy membership semantics:
 * every b element is tested independently (duplicate b's each count,
 * duplicate a's count once).  Galloping when the sizes are lopsided,
 * linear merge otherwise. */
static int64_t pdtl_isect_count(const int64_t *a, int64_t na,
                                const int64_t *b, int64_t nb) {
    int64_t c = 0;
    if (na == 0 || nb == 0) return 0;
    if (na > 32 * nb) {
        for (int64_t j = 0; j < nb; j++) {
            int64_t pos = pdtl_lower_bound(a, na, b[j]);
            if (pos < na && a[pos] == b[j]) c++;
        }
        return c;
    }
    if (nb > 32 * na) {
        for (int64_t i = 0; i < na; i++) {
            if (i > 0 && a[i] == a[i - 1]) continue;
            c += pdtl_upper_bound(b, nb, a[i]) - pdtl_lower_bound(b, nb, a[i]);
        }
        return c;
    }
    {
        int64_t i = 0, j = 0;
        while (i < na && j < nb) {
            if (a[i] < b[j]) i++;
            else if (a[i] > b[j]) j++;
            else { c++; j++; } /* keep i: the next b may repeat this value */
        }
    }
    return c;
}

/* The enumerating walk of one pair of sorted lists: run HIT for every
 * ev[j] (j < d) that occurs in nu (length du), in ev order, with i its
 * position in nu and j its position in ev.  A nu that dwarfs ev is
 * binary-searched per element (galloping), otherwise the two lists are
 * merged -- the hits and their order are the same either way. */
#define PDTL_ISECT_WALK(nu, du, ev, d, HIT)                                  \
    do {                                                                    \
        if ((du) > 32 * (d)) {                                              \
            for (int64_t j = 0; j < (d); j++) {                             \
                int64_t i = pdtl_lower_bound((nu), (du), (ev)[j]);          \
                if (i < (du) && (nu)[i] == (ev)[j]) { HIT; }                \
            }                                                               \
        } else {                                                            \
            int64_t i = 0;                                                  \
            for (int64_t j = 0; j < (d); j++) {                             \
                while (i < (du) && (nu)[i] < (ev)[j]) i++;                  \
                if (i >= (du)) break;                                       \
                if ((nu)[i] == (ev)[j]) { HIT; }                            \
            }                                                               \
        }                                                                   \
    } while (0)

/* The marked walk of the kernels that test many lists against one: the
 * reused list is marked once in the call's scratch array (one entry per
 * vertex id, all zero between uses), each other list is walked in order
 * and every entry whose mark is set is a hit, and the marks are cleared
 * again before the next reused list.  Hits and their order are the
 * merge's: membership of each walked entry, in the walked list's order.
 * Every id is tested against [0, n) before the scratch is touched at it;
 * a kernel that meets one outside returns PDTL_BAD_ID, and its wrapper
 * raises without returning anything the call wrote. */
#define PDTL_BAD_ID (-1)

/* mark every entry of a (length na); returns 0, or 1 at an id outside
 * [0, n) */
static int pdtl_mark(uint8_t *mark, int64_t n, const int64_t *a, int64_t na) {
    for (int64_t i = 0; i < na; i++) {
        if ((uint64_t)a[i] >= (uint64_t)n) return 1;
        mark[a[i]] = 1;
    }
    return 0;
}

static void pdtl_unmark(uint8_t *mark, const int64_t *a, int64_t na) {
    for (int64_t i = 0; i < na; i++) mark[a[i]] = 0;
}

/* run HIT for every entry w = list[j] (j < len) marked in mark, in list
 * order; returns PDTL_BAD_ID from the enclosing kernel at an id outside
 * [0, n), before reading its mark */
#define PDTL_MARKED_WALK(list, len, n, mark, HIT)                            \
    for (int64_t j = 0; j < (len); j++) {                                   \
        const int64_t w = (list)[j];                                        \
        if ((uint64_t)w >= (uint64_t)(n)) return PDTL_BAD_ID;               \
        if ((mark)[w]) { HIT; }                                             \
    }

int64_t pdtl_sorted_membership(const int64_t *hay, int64_t nh,
                               const int64_t *q, int64_t nq, uint8_t *out) {
    int64_t hits = 0;
    for (int64_t i = 0; i < nq; i++) {
        int64_t pos = pdtl_lower_bound(hay, nh, q[i]);
        uint8_t hit = (uint8_t)(pos < nh && hay[pos] == q[i]);
        out[i] = hit;
        hits += hit;
    }
    return hits;
}

/* the gathered total of the cones [lo, hi): the listing capacity */
int64_t pdtl_triangle_gathered(const int64_t *indptr, const int64_t *indices,
                               int64_t n, int64_t lo, int64_t hi) {
    int64_t g = 0;
    for (int64_t p = indptr[lo]; p < indptr[hi]; p++) {
        int64_t v = indices[p];
        if ((uint64_t)v >= (uint64_t)n) return PDTL_BAD_ID;
        g += indptr[v + 1] - indptr[v];
    }
    return g;
}

/* u-major: N(u) is marked once per cone and every N(v), v in N(u), walked
 * against it.  Marking N(u) checks each v before indptr is read at it. */
int64_t pdtl_triangle_count(const int64_t *indptr, const int64_t *indices, int64_t n,
                            int64_t lo, int64_t hi, uint8_t *mark, int64_t *ops) {
    int64_t count = 0, gathered = 0;
    for (int64_t u = lo; u < hi; u++) {
        const int64_t *nu = indices + indptr[u];
        const int64_t du = indptr[u + 1] - indptr[u];
        if (pdtl_mark(mark, n, nu, du)) return PDTL_BAD_ID;
        for (int64_t p = 0; p < du; p++) {
            const int64_t v = nu[p];
            const int64_t dv = indptr[v + 1] - indptr[v];
            gathered += dv;
            PDTL_MARKED_WALK(indices + indptr[v], dv, n, mark, count++);
        }
        pdtl_unmark(mark, nu, du);
    }
    *ops = (indptr[hi] - indptr[lo]) + gathered;
    return count;
}

int64_t pdtl_triangle_list(const int64_t *indptr, const int64_t *indices, int64_t n,
                           int64_t lo, int64_t hi, uint8_t *mark, int64_t *cones,
                           int64_t *vs, int64_t *ws, int64_t *ops) {
    int64_t nhit = 0, gathered = 0;
    for (int64_t u = lo; u < hi; u++) {
        const int64_t *nu = indices + indptr[u];
        const int64_t du = indptr[u + 1] - indptr[u];
        if (pdtl_mark(mark, n, nu, du)) return PDTL_BAD_ID;
        for (int64_t p = 0; p < du; p++) {
            const int64_t v = nu[p];
            const int64_t dv = indptr[v + 1] - indptr[v];
            gathered += dv;
            PDTL_MARKED_WALK(indices + indptr[v], dv, n, mark,
                             cones[nhit] = u; vs[nhit] = v; ws[nhit] = w; nhit++);
        }
        pdtl_unmark(mark, nu, du);
    }
    *ops = (indptr[hi] - indptr[lo]) + gathered;
    return nhit;
}

int64_t pdtl_edge_intersections(const int64_t *indptr, const int64_t *indices,
                                const int64_t *us, const int64_t *vs,
                                int64_t ne, int64_t *per_edge) {
    int64_t total = 0;
    for (int64_t e = 0; e < ne; e++) {
        int64_t u = us[e], v = vs[e];
        int64_t c = pdtl_isect_count(indices + indptr[u],
                                     indptr[u + 1] - indptr[u],
                                     indices + indptr[v],
                                     indptr[v + 1] - indptr[v]);
        if (per_edge) per_edge[e] = c;
        total += c;
    }
    return total;
}

/* enumeration twin of pdtl_edge_intersections: emit (owner, w) for every
 * w in N(u) ∩ N(v), owner-major with w in N(v) order -- the numpy twin's
 * segment-gather order */
int64_t pdtl_edge_common_neighbors(const int64_t *indptr, const int64_t *indices,
                                   const int64_t *us, const int64_t *vs,
                                   int64_t ne, int64_t *owners, int64_t *ws) {
    int64_t nhit = 0;
    for (int64_t e = 0; e < ne; e++) {
        const int64_t *nu = indices + indptr[us[e]];
        int64_t du = indptr[us[e] + 1] - indptr[us[e]];
        const int64_t *nv = indices + indptr[vs[e]];
        int64_t dv = indptr[vs[e] + 1] - indptr[vs[e]];
        PDTL_ISECT_WALK(nu, du, nv, dv, owners[nhit] = e; ws[nhit] = nv[j]; nhit++);
    }
    return nhit;
}

void pdtl_mgt_block_bound(const int64_t *block_adj, const int64_t *block_offsets,
                          int64_t nbv, int64_t vlow, int64_t vhigh,
                          const int64_t *win_degrees,
                          int64_t *pairs, int64_t *total) {
    int64_t npairs = 0, t = 0;
    for (int64_t p = block_offsets[0]; p < block_offsets[nbv]; p++) {
        int64_t v = block_adj[p];
        if (v >= vlow && v <= vhigh) {
            int64_t d = win_degrees[v - vlow];
            if (d > 0) { npairs++; t += d; }
        }
    }
    *pairs = npairs;
    *total = t;
}

/* u-major: a cone's N(u) is marked at its first candidate pair and every
 * E_v walked against it */
int64_t pdtl_mgt_block_scan(const int64_t *block_adj, const int64_t *block_offsets,
                            int64_t nbv, const int64_t *edg,
                            int64_t vlow, int64_t vhigh,
                            const int64_t *win_offsets, const int64_t *win_degrees,
                            int64_t n, uint8_t *mark,
                            int64_t want, int64_t *cones, int64_t *vs, int64_t *ws,
                            int64_t *pairs, int64_t *total) {
    int64_t npairs = 0, t = 0, nhit = 0;
    for (int64_t bu = 0; bu < nbv; bu++) {
        const int64_t *nu = block_adj + block_offsets[bu];
        const int64_t du = block_offsets[bu + 1] - block_offsets[bu];
        int marked = 0;
        for (int64_t p = 0; p < du; p++) {
            const int64_t v = nu[p];
            int64_t d;
            const int64_t *ev;
            if (v < vlow || v > vhigh) continue;
            d = win_degrees[v - vlow];
            if (d <= 0) continue;
            npairs++;
            t += d;
            if (!marked) {
                if (pdtl_mark(mark, n, nu, du)) return PDTL_BAD_ID;
                marked = 1;
            }
            ev = edg + win_offsets[v - vlow];
            if (want) {
                PDTL_MARKED_WALK(ev, d, n, mark,
                                 cones[nhit] = bu; vs[nhit] = v; ws[nhit] = w; nhit++);
            } else {
                PDTL_MARKED_WALK(ev, d, n, mark, nhit++);
            }
        }
        if (marked) pdtl_unmark(mark, nu, du);
    }
    *pairs = npairs;
    *total = t;
    return nhit;
}

/* seconds on the monotonic clock (time.perf_counter's clock on Linux) */
static double pdtl_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* the whole-graph scans of every memory window of an edge range, each
 * walked through the in-neighbour lists.  Window i holds the entries
 * [bounds[i], bounds[i + 1]) and spans the vertices [vlows[i], vhighs[i]];
 * E_v is the part of v's out-list inside the window.  The window's
 * candidate pairs are the entries (u, v) whose E_v is not empty, i.e. the
 * in-edges of those v, and each merges N(u) with E_v; pairs and total are
 * the counts the streaming scan takes over the whole file, once per
 * window.  The walk is v-major: E_v is marked once per window vertex, each
 * in-neighbour's N(u) is walked against it whole (stopping at E_v's last
 * entry measured slower: the lists are short, and the stop is one more
 * unpredictable branch per entry), and the marks are cleared before the
 * next vertex.  A window's in-edges are one slice of in_sources, so the
 * walk prefetches offsets[u] 16 pairs and N(u) 8 pairs ahead along it:
 * each pair's two dependent loads are random.  Listed hits come out window
 * by window, v-major within a window, and window_hits[i] counts window
 * i's; window_pairs and window_seconds, when given, receive each window's
 * pair count and elapsed seconds. */
int64_t pdtl_mgt_chunk_scan(const int64_t *offsets, const int64_t *adjacency,
                            const int64_t *in_offsets, const int64_t *in_sources,
                            int64_t n, uint8_t *mark,
                            const int64_t *bounds, const int64_t *vlows,
                            const int64_t *vhighs, int64_t nwin, int64_t want,
                            int64_t *cones, int64_t *vs, int64_t *ws,
                            int64_t *window_hits, int64_t *window_pairs,
                            double *window_seconds, int64_t *pairs, int64_t *total) {
    int64_t npairs = 0, t = 0, nhit = 0;
    for (int64_t i = 0; i < nwin; i++) {
        const int64_t lo = bounds[i], hi = bounds[i + 1];
        const int64_t qend = in_offsets[vhighs[i] + 1];
        const int64_t first_pair = npairs, first_hit = nhit;
        const double started = window_seconds ? pdtl_now() : 0.0;
        for (int64_t v = vlows[i]; v <= vhighs[i]; v++) {
            const int64_t a = offsets[v] > lo ? offsets[v] : lo;
            const int64_t d = (offsets[v + 1] < hi ? offsets[v + 1] : hi) - a;
            const int64_t *ev = adjacency + a;
            if (d <= 0) continue;
            npairs += in_offsets[v + 1] - in_offsets[v];
            t += (in_offsets[v + 1] - in_offsets[v]) * d;
            if (in_offsets[v + 1] == in_offsets[v]) continue;
            if (pdtl_mark(mark, n, ev, d)) return PDTL_BAD_ID;
            for (int64_t q = in_offsets[v]; q < in_offsets[v + 1]; q++) {
                const int64_t u = in_sources[q];
                const int64_t *nu;
                int64_t du;
                if ((uint64_t)u >= (uint64_t)n) return PDTL_BAD_ID;
                nu = adjacency + offsets[u];
                du = offsets[u + 1] - offsets[u];
                if (q + 16 < qend) __builtin_prefetch(offsets + in_sources[q + 16]);
                if (q + 8 < qend) __builtin_prefetch(adjacency + offsets[in_sources[q + 8]]);
                if (want) {
                    PDTL_MARKED_WALK(nu, du, n, mark,
                                     cones[nhit] = u; vs[nhit] = v; ws[nhit] = w; nhit++);
                } else {
                    PDTL_MARKED_WALK(nu, du, n, mark, nhit++);
                }
            }
            pdtl_unmark(mark, ev, d);
        }
        if (want) window_hits[i] = nhit - first_hit;
        if (window_pairs) window_pairs[i] = npairs - first_pair;
        if (window_seconds) window_seconds[i] = pdtl_now() - started;
    }
    *pairs = npairs;
    *total = t;
    return nhit;
}

/* position of the oriented edge (s, d) in edge_keys, or -1 when s or d
 * lies outside [0, nvert) or s's row does not hold it.  Key position p is
 * adjacency position p, so s's keys are the row [rows[s], rows[s + 1]) of
 * the oriented graph's offsets; a row outside [0, m) holds nothing. */
static int64_t pdtl_edge_position(const int64_t *edge_keys, int64_t m,
                                  const int64_t *rows, int64_t nvert,
                                  int64_t s, int64_t d) {
    int64_t lo, hi, key, pos;
    if ((uint64_t)s >= (uint64_t)nvert || (uint64_t)d >= (uint64_t)nvert) return -1;
    lo = rows[s];
    hi = rows[s + 1];
    if (lo < 0 || hi > m || lo >= hi) return -1;
    key = s * nvert + d;
    pos = lo + pdtl_lower_bound(edge_keys + lo, hi - lo, key);
    return (pos < hi && edge_keys[pos] == key) ? pos : -1;
}

/* add one support to the edges (u, v), (u, w) and (v, w) of every triple;
 * a triple with a pair that is no edge undoes the earlier triples'
 * increments and returns 0, so the caller raises with the sink untouched */
int64_t pdtl_edge_support_accumulate(const int64_t *edge_keys, int64_t m,
                                     const int64_t *rows, int64_t nvert,
                                     const int64_t *us, const int64_t *vs,
                                     const int64_t *ws, int64_t n, int64_t *support) {
    for (int64_t i = 0; i < n; i++) {
        const int64_t uv = pdtl_edge_position(edge_keys, m, rows, nvert, us[i], vs[i]);
        const int64_t uw = pdtl_edge_position(edge_keys, m, rows, nvert, us[i], ws[i]);
        const int64_t vw = pdtl_edge_position(edge_keys, m, rows, nvert, vs[i], ws[i]);
        if (uv < 0 || uw < 0 || vw < 0) {
            for (int64_t r = 0; r < i; r++) {
                support[pdtl_edge_position(edge_keys, m, rows, nvert, us[r], vs[r])]--;
                support[pdtl_edge_position(edge_keys, m, rows, nvert, us[r], ws[r])]--;
                support[pdtl_edge_position(edge_keys, m, rows, nvert, vs[r], ws[r])]--;
            }
            return 0;
        }
        support[uv]++;
        support[uw]++;
        support[vw]++;
    }
    return 1;
}

int64_t pdtl_truss_peel_level(int64_t k, uint8_t *alive, int64_t *support,
                              int64_t *trussness, const int64_t *inc_ptr,
                              const int64_t *inc_tri, const int64_t *tri_edges,
                              uint8_t *tri_alive, int64_t m,
                              int64_t *frontier, uint8_t *in_touched,
                              int64_t *rounds_out) {
    int64_t rounds = 0, peeled = 0;
    int64_t thresh = k - 2;
    /* round 1: full scan.  Later rounds draw their frontier from the
     * edges whose support was decremented this round (the touched set,
     * staged at frontier[nf..]) -- an edge can newly cross the threshold
     * only by losing support, so the frontier sets, the round count and
     * every output array are identical to rescanning all m edges. */
    int64_t nf = 0;
    for (int64_t e = 0; e < m; e++)
        if (alive[e] && support[e] <= thresh) frontier[nf++] = e;
    while (nf > 0) {
        int64_t nt = 0;
        rounds++;
        for (int64_t f = 0; f < nf; f++) {
            alive[frontier[f]] = 0;
            trussness[frontier[f]] = k;
        }
        peeled += nf;
        for (int64_t f = 0; f < nf; f++) {
            int64_t e = frontier[f];
            for (int64_t q = inc_ptr[e]; q < inc_ptr[e + 1]; q++) {
                int64_t tri = inc_tri[q];
                if (!tri_alive[tri]) continue;
                tri_alive[tri] = 0;
                for (int sl = 0; sl < 3; sl++) {
                    int64_t te = tri_edges[3 * tri + sl];
                    if (alive[te]) {
                        support[te]--;
                        if (!in_touched[te]) {
                            in_touched[te] = 1;
                            frontier[nf + nt] = te;
                            nt++;
                        }
                    }
                }
            }
        }
        {
            /* dead frontier and alive touched edges are disjoint, so
             * nf + nt <= m; compacting the next frontier to the front
             * trails the reads (nf >= 1) and never overwrites them */
            int64_t start = nf, nnext = 0;
            for (int64_t i = 0; i < nt; i++) {
                int64_t te = frontier[start + i];
                in_touched[te] = 0;
                if (alive[te] && support[te] <= thresh) frontier[nnext++] = te;
            }
            nf = nnext;
        }
    }
    *rounds_out = rounds;
    return peeled;
}

/* the triangle_list enumeration (same traversal, same emission order)
 * fused with the edge-id mapping.  First every oriented adjacency slot is
 * mapped to its canonical edge id: the pair is canonicalised to
 * (min, max), packed into min*n+max and looked up with the same
 * lower_bound np.searchsorted uses, confined to the source row
 * [row_start[x], row_start[x+1]) (row_start[u] = lower bound of u*n in
 * keys, which brackets every key of row x, so the position equals the
 * global searchsorted result).  This pass tests every id against [0, n).
 * The enumeration is the marked walk of pdtl_triangle_list, with each
 * cone's mark holding 1 + the id of (u, w): a hit's three ids are the
 * scanned slot's (u, v), the mark's (u, w) and the walked slot's (v, w),
 * with no per-triangle searching at all. */
int64_t pdtl_triangle_edge_ids(const int64_t *indptr, const int64_t *indices,
                               const int64_t *keys, const int64_t *row_start,
                               int64_t n, int64_t lo, int64_t hi,
                               int64_t *slot_to_id, int64_t *mark, int64_t *out) {
    int64_t nhit = 0;
    for (int64_t u = 0; u < n; u++) {
        for (int64_t p = indptr[u]; p < indptr[u + 1]; p++) {
            int64_t v = indices[p];
            int64_t x = u < v ? u : v;
            int64_t y = u < v ? v : u;
            int64_t rs;
            if ((uint64_t)v >= (uint64_t)n) return PDTL_BAD_ID;
            rs = row_start[x];
            slot_to_id[p] = rs + pdtl_lower_bound(
                keys + rs, row_start[x + 1] - rs, x * n + y);
        }
    }
    for (int64_t u = lo; u < hi; u++) {
        const int64_t *nu = indices + indptr[u];
        const int64_t *nu_ids = slot_to_id + indptr[u];
        const int64_t du = indptr[u + 1] - indptr[u];
        for (int64_t p = 0; p < du; p++) mark[nu[p]] = nu_ids[p] + 1;
        for (int64_t p = 0; p < du; p++) {
            const int64_t v = nu[p];
            const int64_t *nv = indices + indptr[v];
            const int64_t *nv_ids = slot_to_id + indptr[v];
            const int64_t dv = indptr[v + 1] - indptr[v];
            for (int64_t j = 0; j < dv; j++) {
                const int64_t uw = mark[nv[j]];
                if (uw) {
                    out[3 * nhit] = nu_ids[p];
                    out[3 * nhit + 1] = uw - 1;
                    out[3 * nhit + 2] = nv_ids[j];
                    nhit++;
                }
            }
        }
        for (int64_t p = 0; p < du; p++) mark[nu[p]] = 0;
    }
    return nhit;
}

/* edge -> incident-triangle CSR by stable counting sort of the 3T slots:
 * slots are visited in increasing index order and appended to their edge's
 * bucket, which is exactly np.argsort(flat, kind="stable") // 3 */
void pdtl_incidence_csr(const int64_t *flat, int64_t nslots, int64_t m,
                        int64_t *inc_ptr, int64_t *inc_tri, int64_t *cursor) {
    for (int64_t e = 0; e <= m; e++) inc_ptr[e] = 0;
    for (int64_t s = 0; s < nslots; s++) inc_ptr[flat[s] + 1]++;
    for (int64_t e = 0; e < m; e++) {
        inc_ptr[e + 1] += inc_ptr[e];
        cursor[e] = inc_ptr[e];
    }
    for (int64_t s = 0; s < nslots; s++) {
        int64_t e = flat[s];
        inc_tri[cursor[e]++] = s / 3;
    }
}

/* the orientation filter of the vertex chunk [lo, hi): keep each entry
 * (u, v) with keys[u] < keys[v], in storage order, and count the kept
 * entries of every vertex.  adj holds the chunk's entries only (its first
 * is entry offsets[lo]).  The keep is branch-free: every entry is written
 * and the cursor advances by the comparison.  Returns the kept count, or
 * -1 - u for the first vertex u listing an id outside [0, n), before keys
 * is read at that id. */
int64_t pdtl_orient_range(const int64_t *adj, const int64_t *keys, int64_t n,
                          const int64_t *offsets, int64_t lo, int64_t hi,
                          int64_t *out_degrees, int64_t *kept) {
    int64_t nk = 0, p = 0;
    for (int64_t u = lo; u < hi; u++) {
        const int64_t ku = keys[u], first = nk, end = offsets[u + 1] - offsets[lo];
        for (; p < end; p++) {
            int64_t v = adj[p];
            if ((uint64_t)v >= (uint64_t)n) return -1 - u;
            kept[nk] = v;
            nk += ku < keys[v];
        }
        out_degrees[u - lo] = nk - first;
    }
    return nk;
}

/* the transpose of a CSR graph by a stable counting sort, plus its packed
 * (source, destination) keys key[p] = u * n + adj[p], filled by the
 * counting pass.  in_offsets (n + 1) and in_sources list every target's
 * sources ascending.  The scatter walks the entries backwards and fills
 * each target's slots from the end, so in_offsets[v] moves from the end of
 * v's slots to their start and no cursor array is needed.  Returns 0, or
 * 1 + p for the first entry p holding an id outside [0, n) (nothing is
 * scattered then). */
int64_t pdtl_in_lists(const int64_t *offsets, const int64_t *adj, int64_t n,
                      int64_t *key, int64_t *in_offsets, int64_t *in_sources) {
    const int64_t m = offsets[n];
    int64_t p = 0;
    for (int64_t v = 0; v <= n; v++) in_offsets[v] = 0;
    for (int64_t u = 0; u < n; u++) {
        const int64_t end = offsets[u + 1], row = u * n;
        for (; p < end; p++) {
            int64_t v = adj[p];
            if ((uint64_t)v >= (uint64_t)n) return 1 + p;
            key[p] = row + v;
            in_offsets[v]++;
        }
    }
    for (int64_t v = 1; v < n; v++) in_offsets[v] += in_offsets[v - 1];
    in_offsets[n] = m;
    p = m - 1;
    for (int64_t u = n - 1; u >= 0; u--) {
        const int64_t start = offsets[u];
        for (; p >= start; p--) in_sources[--in_offsets[adj[p]]] = u;
    }
    return 0;
}

/* the format checks of a CSR graph in one pass: out[0] is the first vertex
 * whose list decreases, out[1] the first with a self loop and out[2] the
 * first with two equal adjacent entries, -1 where there is none.  The
 * checks of one list are branch-free; the walk stops at the first
 * unsorted list, whose error outranks the other two. */
void pdtl_csr_violations(const int64_t *indptr, const int64_t *indices, int64_t n,
                         int64_t *out) {
    int64_t unsorted = -1, loop = -1, repeat = -1, p = 0;
    for (int64_t u = 0; u < n; u++) {
        const int64_t end = indptr[u + 1];
        int64_t decreases = 0, loops = 0, repeats = 0;
        if (p < end) {
            int64_t prev = indices[p++];
            loops = prev == u;
            for (; p < end; p++) {
                int64_t x = indices[p];
                loops |= x == u;
                decreases |= x < prev;
                repeats |= x == prev;
                prev = x;
            }
        }
        if (loops && loop < 0) loop = u;
        if (repeats && repeat < 0) repeat = u;
        if (decreases) { unsorted = u; break; }
    }
    out[0] = unsorted;
    out[1] = loop;
    out[2] = repeat;
}
"""

_loaded: tuple | None = None


def _cache_dir() -> str:
    root = os.environ.get("PDTL_KERNEL_CACHE")
    if not root:
        try:
            user = os.getlogin()
        except OSError:
            user = str(os.getuid()) if hasattr(os, "getuid") else "user"
        root = os.path.join(tempfile.gettempdir(), f"pdtl-kernels-{user}")
    digest = hashlib.sha256((_CDEF + _C_SOURCE).encode()).hexdigest()[:16]
    return os.path.join(root, digest)


def _build(cache: str) -> str:
    """Compile the extension into the cache dir; returns the .so path."""
    from cffi import FFI

    builder = FFI()
    builder.cdef(_CDEF)
    builder.set_source(_MODULE_NAME, _C_SOURCE, extra_compile_args=["-O3"])
    build_dir = os.path.join(cache, f"build-{os.getpid()}")
    os.makedirs(build_dir, exist_ok=True)
    try:
        so_path = builder.compile(tmpdir=build_dir)
        final = os.path.join(cache, os.path.basename(so_path))
        os.replace(so_path, final)  # atomic: concurrent builders converge
        return final
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def _get_lib():
    """Load (building once if needed) the cached extension: ``(ffi, lib)``."""
    global _loaded
    if _loaded is not None:
        return _loaded
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    so_path = None
    for entry in sorted(os.listdir(cache)):
        if entry.startswith(_MODULE_NAME) and entry.endswith(".so"):
            so_path = os.path.join(cache, entry)
            break
    if so_path is None:
        so_path = _build(cache)
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, so_path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load compiled kernels from {so_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _loaded = (module.ffi, module.lib)
    return _loaded


def build_registry() -> dict[str, Callable]:
    """Kernel registry of the C tier, checked by :mod:`repro.core.kernel_backend`.

    Raises when cffi or the C toolchain is unavailable -- the caller treats
    that as "tier unavailable" and falls back to numpy.
    """
    ffi, lib = _get_lib()

    def as_i64(arr: np.ndarray) -> np.ndarray:
        a = np.asarray(arr)
        if a.dtype != np.int64:
            a = a.astype(np.int64)
        elif not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        return a

    def ptr(a: np.ndarray):
        return ffi.NULL if a.shape[0] == 0 else ffi.from_buffer("int64_t[]", a)

    def wptr(a: np.ndarray):
        if a.shape[0] == 0:
            return ffi.NULL
        return ffi.from_buffer("int64_t[]", a, require_writable=True)

    def bptr(a: np.ndarray):
        if a.shape[0] == 0:
            return ffi.NULL
        return ffi.from_buffer("uint8_t[]", a, require_writable=True)

    def dptr(a: np.ndarray):
        if a.shape[0] == 0:
            return ffi.NULL
        return ffi.from_buffer("double[]", a, require_writable=True)

    def integer_kinds(*arrays: np.ndarray) -> bool:
        return all(np.asarray(a).dtype.kind in "iu" for a in arrays)

    def checked(result: int, n: int, *arrays: np.ndarray, scratch=None) -> int:
        """``result``, unless the marked walk flagged an id outside
        ``[0, n)``: then clear the caller's ``scratch`` (the walk stopped
        with marks set) and raise naming the first such id of ``arrays``."""
        if result != _BAD_ID:
            return result
        if scratch is not None:
            scratch[:] = 0
        for a in arrays:
            bad = a[(a < 0) | (a >= n)]
            if bad.shape[0]:
                raise GraphFormatError(
                    f"adjacency list holds vertex id {int(bad[0])} outside [0, {n})"
                )
        raise RuntimeError(f"a kernel flagged an id outside [0, {n}), but none is")

    def sorted_membership(haystack, queries):
        if not integer_kinds(haystack, queries):
            return kernels.NUMPY_IMPLS["sorted_membership"](haystack, queries)
        haystack = as_i64(haystack)
        queries = as_i64(queries)
        out = np.zeros(queries.shape[0], dtype=bool)
        if queries.shape[0] and haystack.shape[0]:
            lib.pdtl_sorted_membership(
                ptr(haystack), haystack.shape[0], ptr(queries), queries.shape[0], bptr(out)
            )
        return out

    def triangle_range(indptr, indices, lo, hi, want_triples=False):
        indptr = as_i64(indptr)
        indices = as_i64(indices)
        lo = int(lo)
        hi = int(hi)
        n = indptr.shape[0] - 1
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"cone range [{lo}, {hi}) is not inside [0, {n}]")
        mark = np.zeros(n, dtype=np.uint8)
        ops = ffi.new("int64_t *")
        if not want_triples:
            count = lib.pdtl_triangle_count(
                ptr(indptr), ptr(indices), n, lo, hi, bptr(mark), ops
            )
            return checked(int(count), n, indices), int(ops[0])
        cap = checked(
            int(lib.pdtl_triangle_gathered(ptr(indptr), ptr(indices), n, lo, hi)), n, indices
        )
        cones = np.empty(cap, dtype=np.int64)
        vs = np.empty(cap, dtype=np.int64)
        ws = np.empty(cap, dtype=np.int64)
        nhit = lib.pdtl_triangle_list(
            ptr(indptr), ptr(indices), n, lo, hi, bptr(mark),
            wptr(cones), wptr(vs), wptr(ws), ops,
        )
        nhit = checked(int(nhit), n, indices)
        return cones[:nhit], vs[:nhit], ws[:nhit], int(ops[0])

    def edge_intersections(indptr, indices, us, vs, per_edge=False):
        indptr = as_i64(indptr)
        indices = as_i64(indices)
        us = as_i64(us)
        vs = as_i64(vs)
        ne = us.shape[0]
        if per_edge:
            out = np.zeros(ne, dtype=np.int64)
            lib.pdtl_edge_intersections(
                ptr(indptr), ptr(indices), ptr(us), ptr(vs), ne, wptr(out)
            )
            return out
        total = lib.pdtl_edge_intersections(
            ptr(indptr), ptr(indices), ptr(us), ptr(vs), ne, ffi.NULL
        )
        return int(total)

    def edge_common_neighbors(indptr, indices, us, vs):
        indptr = as_i64(indptr)
        indices = as_i64(indices)
        us = as_i64(us)
        vs = as_i64(vs)
        # C reads indptr[u], indptr[v] unchecked: refuse ids outside the graph
        if us.shape != vs.shape:
            raise ValueError("us and vs must have the same length")
        if us.shape[0] and (
            min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= indptr.shape[0] - 1
        ):
            raise IndexError("edge endpoints must be vertex ids of the graph")
        cap = int((indptr[vs + 1] - indptr[vs]).sum())
        owners = np.empty(cap, dtype=np.int64)
        ws = np.empty(cap, dtype=np.int64)
        nhit = int(
            lib.pdtl_edge_common_neighbors(
                ptr(indptr), ptr(indices), ptr(us), ptr(vs), us.shape[0],
                wptr(owners), wptr(ws),
            )
        )
        return owners[:nhit], ws[:nhit]

    def mgt_block_scan(
        block_adj, block_offsets, edg, vlow, vhigh, win_offsets, win_degrees, mark,
        want_triples,
    ):
        # the streaming scan calls this once per scan block of every window,
        # so the scratch is the caller's: an all-zero uint8 array with one
        # entry per vertex id, which every call leaves all zero (bptr
        # refuses one that is not contiguous)
        if mark.dtype != np.uint8:
            raise TypeError("mark must be a uint8 array")
        block_adj = as_i64(block_adj)
        block_offsets = as_i64(block_offsets)
        edg = as_i64(edg)
        win_offsets = as_i64(win_offsets)
        win_degrees = as_i64(win_degrees)
        nbv = block_offsets.shape[0] - 1
        n = mark.shape[0]
        args = (
            ptr(block_adj), ptr(block_offsets), nbv, ptr(edg), int(vlow), int(vhigh),
            ptr(win_offsets), ptr(win_degrees), n, bptr(mark),
        )
        pairs = ffi.new("int64_t *")
        total = ffi.new("int64_t *")
        if not want_triples:
            nhit = lib.pdtl_mgt_block_scan(
                *args, 0, ffi.NULL, ffi.NULL, ffi.NULL, pairs, total
            )
            nhit = checked(int(nhit), n, block_adj, edg, scratch=mark)
            return int(pairs[0]), int(total[0]), nhit, None, None, None
        lib.pdtl_mgt_block_bound(
            ptr(block_adj), ptr(block_offsets), nbv, int(vlow), int(vhigh),
            ptr(win_degrees), pairs, total,
        )
        cap = int(total[0])
        cones = np.empty(cap, dtype=np.int64)
        vs = np.empty(cap, dtype=np.int64)
        ws = np.empty(cap, dtype=np.int64)
        nhit = lib.pdtl_mgt_block_scan(
            *args, 1, wptr(cones), wptr(vs), wptr(ws), pairs, total
        )
        nhit = checked(int(nhit), n, block_adj, edg, scratch=mark)
        return int(pairs[0]), int(total[0]), nhit, cones[:nhit], vs[:nhit], ws[:nhit]

    def mgt_chunk_scan(
        offsets, adjacency, in_offsets, in_sources, bounds, vlows, vhighs,
        want_triples, per_window,
    ):
        offsets = as_i64(offsets)
        adjacency = as_i64(adjacency)
        in_offsets = as_i64(in_offsets)
        in_sources = as_i64(in_sources)
        bounds = as_i64(bounds)
        vlows = as_i64(vlows)
        vhighs = as_i64(vhighs)
        nwin = vlows.shape[0]
        n = offsets.shape[0] - 1
        # C reads the windows' entries, spans and in-lists unchecked; the
        # listing capacity below also needs the windows to be disjoint
        if not (
            in_offsets.shape == offsets.shape
            and bounds.shape[0] == nwin + 1
            and vhighs.shape[0] == nwin
            and 0 <= bounds[0]
            and bounds[-1] <= adjacency.shape[0]
            and not (np.diff(bounds) < 0).any()
            and (nwin == 0 or (vlows.min() >= 0 and vhighs.max() < n))
            and not (vlows > vhighs).any()
        ):
            raise ValueError("the windows do not fit the graph")
        window_pairs = np.empty(nwin, dtype=np.int64) if per_window else None
        window_seconds = np.empty(nwin, dtype=np.float64) if per_window else None
        pairs = ffi.new("int64_t *")
        total = ffi.new("int64_t *")
        mark = np.zeros(n, dtype=np.uint8)
        args = (
            ptr(offsets), ptr(adjacency), ptr(in_offsets), ptr(in_sources), n, bptr(mark),
            ptr(bounds), ptr(vlows), ptr(vhighs), nwin,
        )
        timings = (wptr(window_pairs), dptr(window_seconds)) if per_window else (ffi.NULL,) * 2
        if not want_triples:
            nhit = lib.pdtl_mgt_chunk_scan(
                *args, 0, ffi.NULL, ffi.NULL, ffi.NULL, ffi.NULL, *timings, pairs, total
            )
            return (
                int(pairs[0]), int(total[0]), checked(int(nhit), n, adjacency, in_sources),
                None, None, None, window_pairs, window_seconds,
            )
        # every pair hits at most |E_v| times, and the windows split each list
        span = np.arange(vlows.min(), vhighs.max() + 1) if nwin else np.empty(0, np.int64)
        overlap = np.minimum(offsets[span + 1], bounds[-1]) - np.maximum(offsets[span], bounds[0])
        cap = int(np.maximum(overlap, 0) @ (in_offsets[span + 1] - in_offsets[span]))
        cones = np.empty(cap, dtype=np.int64)
        vs = np.empty(cap, dtype=np.int64)
        ws = np.empty(cap, dtype=np.int64)
        window_hits = np.empty(nwin, dtype=np.int64)
        nhit = lib.pdtl_mgt_chunk_scan(
            *args, 1, wptr(cones), wptr(vs), wptr(ws), wptr(window_hits),
            *timings, pairs, total,
        )
        nhit = checked(int(nhit), n, adjacency, in_sources)
        # v-major walk -> the streaming scan's (cone, v, w) order per window
        order = np.lexsort((cones[:nhit], np.repeat(np.arange(nwin), window_hits)))
        return (
            int(pairs[0]), int(total[0]), nhit, cones[order], vs[order], ws[order],
            window_pairs, window_seconds,
        )

    def edge_support_accumulate(edge_keys, offsets, us, vs, ws, num_vertices, support):
        edge_keys = as_i64(edge_keys)
        offsets = as_i64(offsets)
        us = as_i64(us)
        vs = as_i64(vs)
        ws = as_i64(ws)
        if support.dtype != np.int64 or not support.flags.c_contiguous:
            raise TypeError("support must be a contiguous int64 array")
        # C reads a row's bounds at every source id it accepts
        if offsets.shape != (int(num_vertices) + 1,) or not (
            us.shape == vs.shape == ws.shape and support.shape == edge_keys.shape
        ):
            raise ValueError("offsets, triples and support do not fit the edge keys")
        ok = lib.pdtl_edge_support_accumulate(
            ptr(edge_keys), edge_keys.shape[0], ptr(offsets), int(num_vertices),
            ptr(us), ptr(vs), ptr(ws), ws.shape[0], wptr(support),
        )
        return bool(ok)

    def truss_peel_level(
        k, alive, support, trussness, inc_ptr, inc_triangles, tri_edges_flat, tri_alive
    ):
        if alive.dtype != np.bool_ or tri_alive.dtype != np.bool_:
            raise TypeError("alive masks must be bool arrays")
        if support.dtype != np.int64 or trussness.dtype != np.int64:
            raise TypeError("support/trussness must be int64 arrays")
        inc_ptr = as_i64(inc_ptr)
        inc_triangles = as_i64(inc_triangles)
        tri_edges_flat = as_i64(tri_edges_flat)
        m = alive.shape[0]
        frontier = np.empty(m, dtype=np.int64)
        in_touched = np.zeros(m, dtype=np.uint8)
        rounds = ffi.new("int64_t *")
        peeled = lib.pdtl_truss_peel_level(
            int(k), bptr(alive), wptr(support), wptr(trussness),
            ptr(inc_ptr), ptr(inc_triangles), ptr(tri_edges_flat), bptr(tri_alive),
            m, wptr(frontier), bptr(in_touched), rounds,
        )
        return int(peeled), int(rounds[0])

    def triangle_edge_ids(indptr, indices, keys, row_start, num_vertices, lo, hi):
        indptr = as_i64(indptr)
        indices = as_i64(indices)
        keys = as_i64(keys)
        row_start = as_i64(row_start)
        n, lo, hi = int(num_vertices), int(lo), int(hi)
        if not (indptr.shape == row_start.shape == (n + 1,) and 0 <= lo <= hi <= n):
            raise ValueError("indptr, row_start and [lo, hi) do not fit num_vertices")
        cap = checked(
            int(lib.pdtl_triangle_gathered(ptr(indptr), ptr(indices), n, lo, hi)), n, indices
        )
        slot_to_id = np.empty(indices.shape[0], dtype=np.int64)
        mark = np.zeros(n, dtype=np.int64)
        out = np.empty(3 * cap, dtype=np.int64)
        nhit = lib.pdtl_triangle_edge_ids(
            ptr(indptr), ptr(indices), ptr(keys), ptr(row_start),
            n, lo, hi, wptr(slot_to_id), wptr(mark), wptr(out),
        )
        nhit = checked(int(nhit), n, indices)
        return out[: 3 * nhit].reshape(nhit, 3)

    def incidence_csr(flat_edges, num_edges):
        flat_edges = as_i64(flat_edges)
        m = int(num_edges)
        nslots = flat_edges.shape[0]
        inc_ptr = np.zeros(m + 1, dtype=np.int64)
        inc_tri = np.empty(nslots, dtype=np.int64)
        cursor = np.empty(m, dtype=np.int64)
        if m:
            lib.pdtl_incidence_csr(
                ptr(flat_edges), nslots, m, wptr(inc_ptr), wptr(inc_tri), wptr(cursor)
            )
        return inc_ptr, inc_tri

    def monotone_offsets(offsets: np.ndarray, count: int) -> bool:
        return (
            offsets.shape[0] >= 1
            and offsets[0] == 0
            and offsets[-1] == count
            and not (np.diff(offsets) < 0).any()
        )

    def orient_range(adjacency, keys, offsets, lo, hi):
        adjacency = as_i64(adjacency)
        keys = as_i64(keys)
        offsets = as_i64(offsets)
        lo = int(lo)
        hi = int(hi)
        n = keys.shape[0]
        # C walks offsets[lo..hi] and the chunk's entries unchecked
        if not (
            0 <= lo <= hi <= n
            and offsets.shape[0] == n + 1
            and not (np.diff(offsets[lo : hi + 1]) < 0).any()
            and offsets[hi] - offsets[lo] == adjacency.shape[0]
        ):
            raise ValueError("chunk [lo, hi) does not fit the offsets and adjacency")
        out_degrees = np.empty(hi - lo, dtype=np.int64)
        kept = np.empty(adjacency.shape[0], dtype=np.int64)
        nkept = int(
            lib.pdtl_orient_range(
                ptr(adjacency), ptr(keys), n, ptr(offsets), lo, hi,
                wptr(out_degrees), wptr(kept),
            )
        )
        if nkept < 0:
            # an id outside the graph: raise the numpy filter's error
            from repro.core.orientation import _out_of_range

            raise _out_of_range(adjacency, offsets, lo, n) or RuntimeError(
                f"orient_range flagged vertex {-1 - nkept}, but every id lies in [0, {n})"
            )
        return out_degrees, kept[:nkept]

    def in_lists(offsets, adjacency, key, in_offsets, in_sources):
        offsets = as_i64(offsets)
        adjacency = as_i64(adjacency)
        n = offsets.shape[0] - 1
        m = adjacency.shape[0]
        for out, size in ((key, m), (in_offsets, n + 1), (in_sources, m)):
            if out.dtype != np.int64 or not out.flags.c_contiguous or out.shape != (size,):
                raise TypeError("outputs must be contiguous int64 arrays of the graph's sizes")
        if not monotone_offsets(offsets, m):
            raise ValueError("offsets must rise from 0 to the adjacency length")
        kernels._require_packable(n)
        bad = int(
            lib.pdtl_in_lists(
                ptr(offsets), ptr(adjacency), n, wptr(key), wptr(in_offsets), wptr(in_sources)
            )
        )
        if bad:
            raise GraphFormatError(
                f"adjacency entry {bad - 1} holds id {int(adjacency[bad - 1])} "
                f"outside [0, {n})"
            )
        return key, in_offsets, in_sources

    def csr_violations(indptr, indices):
        indptr = as_i64(indptr)
        indices = as_i64(indices)
        if not monotone_offsets(indptr, indices.shape[0]):
            raise ValueError("indptr must rise from 0 to the number of indices")
        out = np.empty(3, dtype=np.int64)
        lib.pdtl_csr_violations(ptr(indptr), ptr(indices), indptr.shape[0] - 1, wptr(out))
        return int(out[0]), int(out[1]), int(out[2])

    return {
        "sorted_membership": sorted_membership,
        "triangle_range": triangle_range,
        "edge_intersections": edge_intersections,
        "edge_common_neighbors": edge_common_neighbors,
        "mgt_block_scan": mgt_block_scan,
        "mgt_chunk_scan": mgt_chunk_scan,
        "edge_support_accumulate": edge_support_accumulate,
        "truss_peel_level": truss_peel_level,
        "triangle_edge_ids": triangle_edge_ids,
        "incidence_csr": incidence_csr,
        "orient_range": orient_range,
        "in_lists": in_lists,
        "csr_violations": csr_violations,
    }
