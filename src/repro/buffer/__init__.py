"""Buffer-pool simulation and single-pass LRU stack analysis.

This subpackage provides the machinery behind the paper's Subprogram LRU-Fit
(Section 4.1):

* :class:`~repro.buffer.lru.LRUBufferPool` — an exact least-recently-used
  buffer-pool simulator that counts page fetches for one buffer size.
* :class:`~repro.buffer.stack.StackDistanceAnalyzer` — the Mattson et al.
  (1970) stack-property trick the paper cites: one pass over a page-reference
  trace yields the fetch count for *every* buffer size simultaneously.
* :class:`~repro.buffer.fifo.FIFOBufferPool`,
  :class:`~repro.buffer.clock.ClockBufferPool`,
  :class:`~repro.buffer.twoq.TwoQBufferPool`, and
  :class:`~repro.buffer.lecar.LeCaRBufferPool` — alternative replacement
  policies behind the :mod:`repro.buffer.policies` registry (LRU is what
  the paper models; these quantify how policy-sensitive the FPF curve
  is via the simulated-policy kernels and the drift ablation).
* :mod:`repro.buffer.kernels` — pluggable implementations of the stack
  pass (exact Fenwick baseline, SHARDS sampling, the exact optional numpy
  stream) behind one registry.
"""

from repro.buffer.clock import ClockBufferPool
from repro.buffer.fenwick import FenwickTree
from repro.buffer.fifo import FIFOBufferPool
from repro.buffer.kernels import (
    FetchCurveProvider,
    KernelStream,
    SimulatedPolicyKernel,
    StackDistanceKernel,
    available_kernels,
    available_policy_kernels,
    get_kernel,
    register_kernel,
)
from repro.buffer.lecar import LeCaRBufferPool
from repro.buffer.lru import LRUBufferPool
from repro.buffer.policies import available_policies, get_policy_pool
from repro.buffer.pool import BufferPool, simulate_fetches
from repro.buffer.stack import FetchCurve, StackDistanceAnalyzer, stack_distances
from repro.buffer.twoq import TwoQBufferPool

__all__ = [
    "BufferPool",
    "ClockBufferPool",
    "FIFOBufferPool",
    "FenwickTree",
    "FetchCurve",
    "FetchCurveProvider",
    "KernelStream",
    "LRUBufferPool",
    "LeCaRBufferPool",
    "SimulatedPolicyKernel",
    "StackDistanceAnalyzer",
    "StackDistanceKernel",
    "TwoQBufferPool",
    "available_kernels",
    "available_policies",
    "available_policy_kernels",
    "get_kernel",
    "get_policy_pool",
    "register_kernel",
    "simulate_fetches",
    "stack_distances",
]
