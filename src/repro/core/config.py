"""Configuration for the APGRE driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.decompose.partition import DEFAULT_THRESHOLD
from repro.errors import AlgorithmError

__all__ = ["APGREConfig"]

_PARALLEL_MODES = ("serial", "processes", "threads")
_AB_METHODS = ("auto", "bfs", "tree")
_BACKENDS = ("auto", "serial", "threads", "processes")
_KERNELS = ("auto", "arcs", "spmm", "pull", "numba")


@dataclass(frozen=True)
class APGREConfig:
    """Options controlling an APGRE run.

    Attributes
    ----------
    threshold:
        Algorithm-1 small-BCC merge threshold (vertices). Swept by the
        threshold ablation benchmark.
    alpha_beta_method:
        ``"bfs"`` (the paper's blocked BFS, O(Σ_i |A_i|·(V+E))),
        ``"tree"`` (this reproduction's block-cut-tree DP: O(V+E) on
        undirected inputs, O(V+E + Σ_i |A_i|·|E_i|) on directed ones)
        or ``"auto"`` (tree). Both give bit-identical α/β.
    eliminate_pendants:
        Enable the total-redundancy elimination (R/γ). Disabling it
        runs every vertex as a source — the partial-redundancy-only
        ablation.
    parallel:
        ``"serial"``, ``"processes"`` (coarse-grained sub-graph
        parallelism over a fork pool — the paper's ``cilk_for`` level)
        or ``"threads"`` (same tasks on a thread pool; GIL-bound, kept
        for the scaling study).  Superseded for batched execution by
        ``backend``, which dispatches root batches through the
        execution-backend registry.
    backend:
        Execution engine for the batched BC phase
        (:mod:`repro.parallel.backends`): ``"threads"`` (worker
        threads over the shared in-process CSR — true multicore via
        the GIL-releasing SpMM kernel, zero fork/pickle overhead),
        ``"processes"`` (the persistent shared-memory fork pool),
        ``"serial"`` (inline chunk loop), or ``"auto"`` (best engine
        for this host, honouring ``REPRO_PARALLEL_BACKEND``).  ``None``
        (default) keeps the legacy ``parallel``/``parallel_batched``
        dispatch.  Setting a backend implies ``batch_size="auto"``
        when no batch size is set; the engine fans each sub-graph's
        root batches out over ``workers``.
    workers:
        Worker count for the parallel modes.
    timeout:
        Per-task wall-clock budget in seconds for supervised process
        execution (``None`` disables timeouts). Stuck workers are
        killed and their task retried/degraded per the ladder in
        docs/ROBUSTNESS.md.
    max_retries:
        Pool re-dispatches allowed per failed/timed-out task before
        the task drops to the serial rung.
    fallback:
        ``True`` (default) enables graceful degradation (serial task
        re-runs, and full-serial/Brandes rungs when the pool is
        unhealthy); ``False`` raises
        :class:`~repro.errors.ExecutionError` subclasses instead.
    batch_size:
        Route each sub-graph's root set through the multi-source
        batched kernel (:mod:`repro.graph.batched`), ``batch_size``
        sources at a time. ``None`` (default) keeps the per-source
        kernel; ``"auto"`` sizes batches from the graph and available
        memory; a positive int fixes the batch width.
    parallel_batched:
        Run the process-parallel BC phase on the persistent
        shared-memory pool (:mod:`repro.parallel.batched_pool`):
        workers accumulate batched root-slice deltas into shared score
        rows instead of pickling a score vector per task, with
        LPT-planned placement and work stealing.  Requires
        ``parallel="processes"``; implies ``batch_size="auto"`` when
        no batch size is set.
    steal:
        Allow idle pool workers to steal the heaviest remaining batch
        of the most-loaded peer (``parallel_batched`` runs only).
        ``False`` keeps the static LPT placement — kept as the
        measurable baseline the steal scheduler is compared against.
    cache:
        Enable the decomposition-aware contribution cache
        (:mod:`repro.cache`): sub-graphs whose content fingerprint
        (local edges + incoming α/β/γ summaries) is already stored
        replay their scores instead of recomputing; misses fan out
        through the configured parallel machinery and are stored.
        ``True`` uses the process-global default store (shared across
        runs), a :class:`~repro.cache.store.ContributionStore` is used
        as-is, ``None``/``False`` disables caching (unless
        ``cache_dir`` is set, which implies ``True``).
    cache_dir:
        Directory for the cache's persistent on-disk layer; setting it
        enables caching. Separate processes and CLI invocations
        pointed at the same directory share warmth.
    compress:
        Run each sub-graph through the structural compression ladder
        (:mod:`repro.compress`) before its BC sweeps: twin classes
        (same open/closed neighbourhood) merge into weighted
        representatives, maximal degree-2 chains contract to integer-
        length super-edges, and single-level pendants fold into
        endpoint mass.  Scores are identical to the uncompressed
        kernels (the plan inverts the compression exactly); sub-graphs
        where no rule fires route through the plain kernels unchanged.
        Composes with every execution path, including ``cache=`` —
        compressed runs fingerprint the *plan*, so structurally
        twin-heavy identical sub-graphs share one store entry.
    journal_dir:
        Directory for the crash-safe run journal (:mod:`repro.journal`):
        every completed sub-graph contribution is durably committed to
        an append-only checksummed log so a killed run resumes from its
        last committed sub-graph.  ``None`` (default) disables
        journaling.  The fingerprint pins only score-relevant fields
        (threshold / alpha_beta_method / eliminate_pendants), so a run
        may resume under a different execution strategy than it was
        journaled under.
    resume:
        Resume from the journal in ``journal_dir``: replay every valid
        record (torn tails are dropped by checksum) and recompute only
        the unjournaled sub-graphs.  Requires ``journal_dir``; a
        missing journal or a fingerprint mismatch raises
        :class:`~repro.errors.JournalError`.
    shard:
        Split every undirected sub-graph larger than
        ``shard_max_size`` along divide-and-conquer vertex separators
        (:mod:`repro.shard`, docs/SHARDING.md): each shard computes
        its home sources independently on a shard-plus-separator
        graph, boundary-correction sweeps reconcile the paths that
        cross the separator, and the per-shard vectors sum to exactly
        the unsharded scores.  Shards are first-class work units —
        they schedule independently through the execution backends,
        carry their own cache keys and journal records, and turn the
        dominant-BCC critical path from O(whole BCC) into O(largest
        shard + correction).  Sub-graphs a shard plan cannot split
        (directed, small, clique-like) run the unsharded kernels;
        sharded sub-graphs skip the compression ladder (the two
        reductions do not compose — see the docs matrix).
    shard_max_size:
        Interior size ceiling per shard (vertices).  Only sub-graphs
        strictly larger than this are split.
    kernel:
        Compute kernel for the batched traversals
        (:mod:`repro.graph.kernels`): ``"arcs"`` (pure numpy,
        bit-identical to serial), ``"spmm"`` (scipy sparse-matmul
        levels), ``"pull"`` (direction-optimizing push/pull),
        ``"numba"`` (optional compiled per-source Brandes), or
        ``"auto"`` (per-sub-graph selection from structural features).
        ``None`` (default) is the availability default — the SpMM
        sweep when scipy imports, else arcs — with no ``REPRO_KERNEL``
        lookup per sub-graph.  Kernels run inside the
        batched paths, so setting one implies ``batch_size="auto"``
        when no batch size is set; requesting an unavailable kernel
        degrades to the default with a ``RuntimeWarning``.
    """

    threshold: int = DEFAULT_THRESHOLD
    alpha_beta_method: str = "auto"
    eliminate_pendants: bool = True
    parallel: str = "serial"
    backend: Optional[str] = None
    workers: int = 1
    timeout: Optional[float] = None
    max_retries: int = 2
    fallback: bool = True
    batch_size: Optional[Union[int, str]] = None
    parallel_batched: bool = False
    steal: bool = True
    cache: object = None
    cache_dir: Optional[str] = None
    compress: bool = False
    journal_dir: Optional[str] = None
    resume: bool = False
    shard: bool = False
    shard_max_size: int = 2048
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kernel is not None:
            if self.kernel not in _KERNELS:
                raise AlgorithmError(
                    f"kernel must be one of {_KERNELS} or None, "
                    f"got {self.kernel!r}"
                )
            if self.batch_size is None:
                # kernels run inside the batched paths; auto is the
                # only safe unattended batch width
                object.__setattr__(self, "batch_size", "auto")
        if self.parallel not in _PARALLEL_MODES:
            raise AlgorithmError(
                f"parallel must be one of {_PARALLEL_MODES}, "
                f"got {self.parallel!r}"
            )
        if self.backend is not None:
            if self.backend not in _BACKENDS:
                raise AlgorithmError(
                    f"backend must be one of {_BACKENDS} or None, "
                    f"got {self.backend!r}"
                )
            if self.parallel_batched:
                raise AlgorithmError(
                    "backend and parallel_batched are mutually "
                    "exclusive; parallel_batched is the legacy "
                    "spelling of backend='processes'"
                )
            if self.batch_size is None:
                # the engines move batched deltas, so a batch width is
                # needed; auto is the only safe unattended default
                object.__setattr__(self, "batch_size", "auto")
        if self.parallel_batched:
            if self.parallel != "processes":
                raise AlgorithmError(
                    "parallel_batched requires parallel='processes', "
                    f"got parallel={self.parallel!r}"
                )
            if self.batch_size is None:
                # the pool moves batched deltas, so it needs a batch
                # width; auto is the only safe unattended default
                object.__setattr__(self, "batch_size", "auto")
        if self.alpha_beta_method not in _AB_METHODS:
            raise AlgorithmError(
                f"alpha_beta_method must be one of {_AB_METHODS}, "
                f"got {self.alpha_beta_method!r}"
            )
        if self.workers < 1:
            raise AlgorithmError(f"workers must be >= 1, got {self.workers}")
        if self.threshold < 0:
            raise AlgorithmError(
                f"threshold must be >= 0, got {self.threshold}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise AlgorithmError(
                f"timeout must be > 0 seconds, got {self.timeout}"
            )
        if self.max_retries < 0:
            raise AlgorithmError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not isinstance(self.shard_max_size, int) or isinstance(
            self.shard_max_size, bool
        ):
            raise AlgorithmError(
                f"shard_max_size must be an int, got {self.shard_max_size!r}"
            )
        if self.shard_max_size < 16:
            # thinner shards than this drown in separator tables; the
            # floor also keeps the level-cut heuristic meaningful
            raise AlgorithmError(
                f"shard_max_size must be >= 16, got {self.shard_max_size}"
            )
        if self.resume and not self.journal_dir:
            raise AlgorithmError(
                "resume=True requires journal_dir (there is no journal "
                "to resume from without one)"
            )
        if self.cache is not None and not isinstance(self.cache, bool):
            # duck-typed on purpose: importing repro.cache here would
            # close an import cycle through the APGRE driver
            if not (
                callable(getattr(self.cache, "get", None))
                and callable(getattr(self.cache, "put", None))
            ):
                raise AlgorithmError(
                    "cache must be None, a bool, or a ContributionStore-"
                    f"like object with get/put, got {self.cache!r}"
                )
        if self.batch_size is not None:
            if isinstance(self.batch_size, str):
                if self.batch_size != "auto":
                    raise AlgorithmError(
                        "batch_size must be None, 'auto' or a positive "
                        f"int, got {self.batch_size!r}"
                    )
            elif not isinstance(self.batch_size, int) or self.batch_size < 1:
                raise AlgorithmError(
                    "batch_size must be None, 'auto' or a positive "
                    f"int, got {self.batch_size!r}"
                )
