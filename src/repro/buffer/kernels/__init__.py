"""Pluggable stack-distance kernels behind a common registry.

Three implementations of the Mattson pass (Section 4.1's "simultaneous
simulation for a number of buffer pool sizes"), selectable by name anywhere
the library runs an LRU analysis (``LRUFitConfig.kernel``, the experiment
runner, ``repro perf``):

``baseline``
    The original Fenwick-tree-over-positions pass; exact, O(M log M), pure
    Python.  The default when numpy is missing, and the reference every
    exact kernel is tested against.
``sampled``
    SHARDS-style spatial hash sampling; approximate with a documented
    error bound, an order of magnitude faster on large traces.
``numpy``
    Exact streamed dominance count over O(D) carried state, one fed
    block at a time; the default kernel.  Registered only when numpy is
    importable (the package itself stays zero-dependency).

Beyond the LRU stack kernels, the registry carries a **policy**
dimension: ``clock``, ``2q``, and ``lecar-tinylfu`` resolve to
:class:`~repro.buffer.kernels.policy.SimulatedPolicyKernel` providers
that replay the matching :class:`~repro.buffer.pool.BufferPool`
simulator per buffer size — same streaming/checkpoint/metrics API,
exact with respect to their own policy rather than LRU.

See :mod:`repro.buffer.kernels.base` for the provider/stream interface
and :mod:`repro.buffer.kernels.registry` for registration.
"""

from repro.buffer.kernels.base import (
    FetchCurveProvider,
    KernelStream,
    StackDistanceKernel,
)
from repro.buffer.kernels.baseline import BaselineKernel
from repro.buffer.kernels.policy import (
    SimulatedFetchCurve,
    SimulatedPolicyKernel,
)
from repro.buffer.kernels.registry import (
    DEFAULT_KERNEL,
    available_kernels,
    available_policy_kernels,
    get_kernel,
    register_kernel,
    register_policy_kernel,
    resolve_kernel,
)
from repro.buffer.kernels.mergeable import (
    ExactShardSummary,
    SeamStats,
    merge_exact_summaries,
)
from repro.buffer.kernels.sampled import (
    SAMPLED_BAND_ERROR_BOUND,
    ApproximateFetchCurve,
    SampledKernel,
    SampledShardSummary,
    merge_sampled_summaries,
)
from repro.buffer.kernels.sharded import (
    ShardRunResult,
    as_shard_source,
    run_sharded_pass,
    shard_bounds,
    sharded_chunked_curve,
    sharded_fetch_curve,
)
from repro.buffer.kernels.vectorized import HAVE_NUMPY, VectorizedKernel

register_kernel(BaselineKernel.name, BaselineKernel)
register_kernel(SampledKernel.name, SampledKernel)
if HAVE_NUMPY:
    register_kernel(VectorizedKernel.name, VectorizedKernel)

#: Non-LRU replacement policies exposed as fetch-curve providers (the
#: registry's ``policy=`` dimension).  LRU itself is *not* here: its
#: curve comes from the far faster stack kernels above.
POLICY_KERNEL_NAMES = ("clock", "2q", "lecar-tinylfu")
for _policy in POLICY_KERNEL_NAMES:
    register_policy_kernel(
        _policy,
        # Bind the loop variable now; a bare lambda would capture the
        # final value for every factory.
        lambda _policy=_policy, **options: SimulatedPolicyKernel(
            _policy, **options
        ),
    )
del _policy

__all__ = [
    "ApproximateFetchCurve",
    "BaselineKernel",
    "DEFAULT_KERNEL",
    "ExactShardSummary",
    "FetchCurveProvider",
    "HAVE_NUMPY",
    "KernelStream",
    "POLICY_KERNEL_NAMES",
    "SAMPLED_BAND_ERROR_BOUND",
    "SampledKernel",
    "SampledShardSummary",
    "SeamStats",
    "ShardRunResult",
    "SimulatedFetchCurve",
    "SimulatedPolicyKernel",
    "StackDistanceKernel",
    "VectorizedKernel",
    "as_shard_source",
    "available_kernels",
    "available_policy_kernels",
    "get_kernel",
    "merge_exact_summaries",
    "merge_sampled_summaries",
    "register_kernel",
    "register_policy_kernel",
    "resolve_kernel",
    "run_sharded_pass",
    "shard_bounds",
    "sharded_chunked_curve",
    "sharded_fetch_curve",
]
