"""The PDTL computational-environment model.

Section IV of the paper: *"We assume a computational environment of N
nodes, each of which has P processors, with M bytes of memory for each of
the processors, so that by choosing these parameters appropriately, we can
model a high-end data center, with multiple processors per machine, or
even just a single computer with low available memory."*

:class:`PDTLConfig` captures exactly that tuple plus the block size ``B``
of the I/O model and a couple of implementation knobs (the ``c`` constant
of the small-degree assumption and whether load balancing is enabled).
The master always orients with all ``P`` of its cores (Figure 2).

What a run reports is not part of the environment: the sink kind is an
argument of :meth:`repro.core.pdtl.PDTLRunner.run`.  Neither is the host's
kernel tier, which :mod:`repro.core.kernel_backend` chooses per process
and every chunk task carries to the worker that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.externalmem.blockio import DEFAULT_BLOCK_SIZE
from repro.utils import format_size, parse_size

__all__ = ["PDTLConfig"]


@dataclass(frozen=True)
class PDTLConfig:
    """Configuration of a PDTL run.

    Parameters
    ----------
    num_nodes:
        ``N`` -- number of machines in the (possibly simulated) cluster.
    procs_per_node:
        ``P`` -- processors per machine; each gets its own edge range.
    memory_per_proc:
        ``M`` -- bytes of memory available to each processor's MGT worker.
        Accepts human-readable strings such as ``"64MB"``.
    block_size:
        ``B`` -- block size of the I/O model in bytes.
    memory_fill_fraction:
        the ``c < 1`` constant of the small-degree assumption: at most
        ``c · M`` bytes of the budget are used for the in-memory edge window,
        leaving room for the per-vertex scratch arrays.
    load_balanced:
        whether the master balances edge ranges by oriented in-degree
        (Figure 9) instead of splitting edges equally.
    scheduling:
        how oriented edge positions are handed to the ``N·P`` workers.
        ``"static"`` (the paper's protocol) computes one contiguous range per
        processor up front with :func:`repro.core.load_balance.split_edges`;
        ``"dynamic"`` splits the file into many window-aligned chunks
        (:mod:`repro.core.scheduler`) that workers *pull* from a shared queue,
        so heterogeneous, straggling or failing workers cannot stall the run.
        Both modes report the exact same triangle counts.
    chunk_edges:
        target chunk size for ``scheduling="dynamic"``, in oriented edge
        positions.  Rounded **up** to a whole number of MGT memory windows
        (``window_edges``) so a chunk never pays a partial-window scan.  When
        omitted, a size is derived from ``M`` so each worker sees roughly
        :data:`repro.core.scheduler.DEFAULT_CHUNKS_PER_WORKER` chunks.
    failure_spec:
        fault-injection for ``scheduling="dynamic"``: a mapping (or iterable
        of pairs) ``{worker_index: after_chunks}``.  Worker ``w`` (global
        index ``node·P + proc``) is killed when it pulls its
        ``after_chunks+1``-th chunk; the chunk it was holding is re-enqueued
        and re-executed by a surviving worker, so the final counts are exact.
        Normalised to a sorted tuple of ``(worker, after_chunks)`` pairs so
        the configuration stays hashable.
    straggler_spec:
        heterogeneity injection: a mapping (or iterable of pairs)
        ``{worker_index: factor}``.  The modelled cost of every chunk worker
        ``w`` completes is multiplied by ``factor`` (``> 1`` models a slow
        machine).  Under ``scheduling="static"`` the worker's pinned range
        stretches by the factor and stalls the run; under
        ``scheduling="dynamic"`` the deterministic pull replay routes fewer
        chunks to it.  Normalised to a sorted tuple of ``(worker, factor)``
        pairs so the configuration stays hashable.
    modelled_cpu:
        when True, each MGT worker reports a *modelled* CPU time derived from
        its deterministic operation count (edges scanned plus intersection
        work) instead of the measured thread CPU time.  Only then are
        ``calc_seconds`` and the dynamic schedule bit-identical across
        backends, hosts and repetitions, as the cross-backend equivalence
        suite asserts; measured CPU time can move chunks between workers.
    shm:
        when True, the runner publishes the oriented adjacency (degrees,
        adjacency, offsets) into named ``multiprocessing.shared_memory``
        segments once per run and every chunk task slices its memory
        windows zero-copy from them (:mod:`repro.core.shm`) instead of
        re-reading the on-disk replica -- the layer that lets the
        ``processes`` backend scale past duplicated host reads.  Purely a
        host-side wall-clock optimisation below the accounting layer:
        triangle counts, :class:`~repro.externalmem.iostats.IOStats` and
        modelled times are bit-identical with it on or off.  On platforms
        without POSIX shared memory the runner falls back to the on-disk
        path with a warning (see :func:`repro.core.shm.shm_available`).
    trace:
        when True, the runner records a hierarchical span trace of the run
        (master phases, per-chunk scans, per-window kernel spans) and
        assembles the unified metrics registry; the result carries a
        :class:`repro.obs.export.RunTelemetry` exportable as Chrome
        trace-event JSON (:mod:`repro.obs`).  Instrumentation only, strictly
        outside the accounting layer: every modelled time,
        :class:`~repro.externalmem.iostats.IOStats` counter and triangle
        count is bit-identical with tracing on or off, and the disabled
        path records nothing and allocates nothing.
    """

    num_nodes: int = 1
    procs_per_node: int = 1
    memory_per_proc: int = 64 * 1024 * 1024
    block_size: int = DEFAULT_BLOCK_SIZE
    memory_fill_fraction: float = 0.5
    load_balanced: bool = True
    scheduling: str = "static"
    chunk_edges: int | None = None
    failure_spec: tuple[tuple[int, int], ...] = ()
    straggler_spec: tuple[tuple[int, float], ...] = ()
    modelled_cpu: bool = False
    shm: bool = False
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "memory_per_proc", parse_size(self.memory_per_proc))
        object.__setattr__(self, "block_size", parse_size(self.block_size))
        if self.num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.procs_per_node <= 0:
            raise ConfigurationError(
                f"procs_per_node must be positive, got {self.procs_per_node}"
            )
        if self.memory_per_proc <= 0:
            raise ConfigurationError("memory_per_proc must be positive")
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.block_size > self.memory_per_proc:
            raise ConfigurationError(
                f"block_size ({self.block_size}) cannot exceed memory_per_proc "
                f"({self.memory_per_proc})"
            )
        if not 0.0 < self.memory_fill_fraction < 1.0:
            raise ConfigurationError(
                "memory_fill_fraction must be strictly between 0 and 1"
            )
        if self.scheduling not in ("static", "dynamic"):
            raise ConfigurationError(
                f"scheduling must be 'static' or 'dynamic', got {self.scheduling!r}"
            )
        if self.chunk_edges is not None:
            object.__setattr__(self, "chunk_edges", int(self.chunk_edges))
            if self.chunk_edges <= 0:
                raise ConfigurationError("chunk_edges must be positive")
            if self.scheduling != "dynamic":
                raise ConfigurationError(
                    "chunk_edges requires scheduling='dynamic' (static ranges "
                    "are sized by split_edges, not by chunking)"
                )
        object.__setattr__(
            self, "failure_spec", self._normalize_failure_spec(self.failure_spec)
        )
        if self.failure_spec and self.scheduling != "dynamic":
            raise ConfigurationError(
                "failure_spec requires scheduling='dynamic' (static ranges have "
                "no queue to re-enqueue a lost worker's chunks onto)"
            )
        if len(self.failure_spec) >= self.total_processors:
            raise ConfigurationError(
                "failure_spec must leave at least one surviving worker"
            )
        object.__setattr__(
            self, "straggler_spec", self._normalize_straggler_spec(self.straggler_spec)
        )
        object.__setattr__(self, "trace", bool(self.trace))

    def _normalize_worker_spec(self, spec, label, coerce, check, requirement):
        """Normalise an injection spec (dict or iterable of ``(worker, value)``
        pairs) to a sorted tuple, validating workers and values.

        ``coerce`` converts the value (``int``/``float``), ``check`` accepts
        a coerced value, and ``requirement`` describes valid values for the
        error message.
        """
        if not spec:
            return ()
        pairs = spec.items() if isinstance(spec, dict) else spec
        normalized: dict[int, object] = {}
        for entry in pairs:
            worker, value = entry
            worker, value = int(worker), coerce(value)
            if not 0 <= worker < self.total_processors:
                raise ConfigurationError(
                    f"{label} worker {worker} out of range for "
                    f"{self.total_processors} processors"
                )
            if not check(value):
                raise ConfigurationError(f"{label} {requirement}")
            if worker in normalized:
                raise ConfigurationError(
                    f"{label} lists worker {worker} more than once"
                )
            normalized[worker] = value
        return tuple(sorted(normalized.items()))

    def _normalize_failure_spec(self, spec: object) -> tuple[tuple[int, int], ...]:
        return self._normalize_worker_spec(
            spec, "failure_spec", int, lambda after: after >= 0,
            "chunk counts must be >= 0",
        )

    def _normalize_straggler_spec(self, spec: object) -> tuple[tuple[int, float], ...]:
        return self._normalize_worker_spec(
            spec, "straggler_spec", float, lambda factor: factor > 0.0,
            "factors must be positive",
        )

    @property
    def failure_after(self) -> dict[int, int]:
        """The failure spec as a ``{worker_index: after_chunks}`` mapping."""
        return dict(self.failure_spec)

    @property
    def straggler_factors(self) -> dict[int, float]:
        """The straggler spec as a ``{worker_index: factor}`` mapping."""
        return dict(self.straggler_spec)

    # -- derived quantities ----------------------------------------------------------

    @property
    def total_processors(self) -> int:
        """``N · P`` -- the total number of edge ranges / MGT workers."""
        return self.num_nodes * self.procs_per_node

    @property
    def total_memory(self) -> int:
        """``N · P · M`` in bytes."""
        return self.total_processors * self.memory_per_proc

    @property
    def window_edges(self) -> int:
        """Maximum number of oriented edges held in one MGT memory window.

        Each adjacency entry is an int64 (8 bytes); the window uses at most
        ``memory_fill_fraction`` of the per-processor budget, the rest being
        reserved for ``ind`` and the per-vertex scratch arrays.
        """
        return max(int(self.memory_per_proc * self.memory_fill_fraction) // 8, 1)

    @property
    def block_items(self) -> int:
        """Block size expressed in int64 items."""
        return max(self.block_size // 8, 1)

    def single_core(self) -> "PDTLConfig":
        """A copy of this configuration restricted to one node and one core
        (the single-core MGT baseline of Figures 10/11)."""
        return replace(self, num_nodes=1, procs_per_node=1)

    def with_cores(self, procs_per_node: int) -> "PDTLConfig":
        return replace(self, procs_per_node=procs_per_node)

    def with_nodes(self, num_nodes: int) -> "PDTLConfig":
        return replace(self, num_nodes=num_nodes)

    def with_memory(self, memory_per_proc: int | str) -> "PDTLConfig":
        return replace(self, memory_per_proc=parse_size(memory_per_proc))

    def describe(self) -> str:
        return (
            f"PDTLConfig(N={self.num_nodes} nodes, P={self.procs_per_node} procs/node, "
            f"M={format_size(self.memory_per_proc)}/proc, "
            f"B={format_size(self.block_size)}, "
            f"load_balanced={self.load_balanced}, "
            f"scheduling={self.scheduling}, shm={self.shm})"
        )
