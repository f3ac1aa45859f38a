"""Name-based registry of fetch-curve providers, in two dimensions.

The registry is how the rest of the library (``LRUFitConfig``, the CLI, the
benchmarks) names a kernel without importing its module.  It has two
dimensions:

* the **stack-kernel** dimension (:func:`register_kernel` /
  :func:`available_kernels`): interchangeable implementations of the LRU
  Mattson pass, all producing the same LRU curve.  Built-ins self-register
  when :mod:`repro.buffer.kernels` is imported; the optional numpy kernel
  registers only when numpy is importable, keeping the package itself
  zero-dependency.
* the **policy** dimension (:func:`register_policy_kernel` /
  :func:`available_policy_kernels`): one simulated-policy provider per
  non-LRU replacement policy (``clock``, ``2q``, ``lecar-tinylfu``).
  These are *not* listed by :func:`available_kernels` — every consumer of
  that tuple (sharded passes, the perf harness, kernel equivalence tests)
  assumes LRU semantics — but :func:`get_kernel` resolves both dimensions,
  so a policy name works anywhere a kernel name is accepted.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from repro.buffer.kernels.base import FetchCurveProvider, StackDistanceKernel
from repro.buffer.kernels.vectorized import HAVE_NUMPY
from repro.errors import KernelError

#: The kernel used when none is named: the exact numpy stream when numpy
#: imports, else the pure-Python Fenwick pass.
DEFAULT_KERNEL = "numpy" if HAVE_NUMPY else "baseline"

_FACTORIES: Dict[str, Callable[..., StackDistanceKernel]] = {}
_POLICY_FACTORIES: Dict[str, Callable[..., FetchCurveProvider]] = {}


def register_kernel(
    name: str,
    factory: Callable[..., StackDistanceKernel],
    replace: bool = False,
) -> None:
    """Register ``factory`` (usually a kernel class) under ``name``.

    Registering an already-taken name raises
    :class:`~repro.errors.KernelError` unless ``replace=True`` — tests and
    downstream experiments may override a built-in deliberately, but should
    never do so by accident.  Names are shared across both registry
    dimensions, so a stack kernel can never shadow a policy kernel.
    """
    if not name or not isinstance(name, str):
        raise KernelError(f"kernel name must be a non-empty string, got {name!r}")
    if name in _POLICY_FACTORIES:
        raise KernelError(
            f"kernel {name!r} is already registered as a policy kernel"
        )
    if name in _FACTORIES and not replace:
        raise KernelError(
            f"kernel {name!r} is already registered; pass replace=True "
            f"to override"
        )
    _FACTORIES[name] = factory


def register_policy_kernel(
    name: str,
    factory: Callable[..., FetchCurveProvider],
    replace: bool = False,
) -> None:
    """Register a simulated-policy provider under ``name``.

    The policy dimension is kept apart from :func:`available_kernels` on
    purpose: policy curves are exact with respect to their *own* pool
    simulator, not the LRU baseline, so they must never be swept into
    code paths that assume every registered kernel reproduces LRU.
    """
    if not name or not isinstance(name, str):
        raise KernelError(f"kernel name must be a non-empty string, got {name!r}")
    if name in _FACTORIES:
        raise KernelError(
            f"kernel {name!r} is already registered as a stack kernel"
        )
    if name in _POLICY_FACTORIES and not replace:
        raise KernelError(
            f"policy kernel {name!r} is already registered; pass "
            f"replace=True to override"
        )
    _POLICY_FACTORIES[name] = factory


def available_kernels() -> Tuple[str, ...]:
    """Sorted names of every registered *stack-distance* kernel.

    Policy kernels are deliberately excluded — see
    :func:`available_policy_kernels`.
    """
    return tuple(sorted(_FACTORIES))


def available_policy_kernels() -> Tuple[str, ...]:
    """Sorted names of every registered simulated-policy kernel."""
    return tuple(sorted(_POLICY_FACTORIES))


def get_kernel(name: str = DEFAULT_KERNEL, **options) -> FetchCurveProvider:
    """Instantiate the provider registered under ``name``.

    Resolves both dimensions: stack kernels first, then policy kernels,
    so ``get_kernel("clock")`` returns the CLOCK provider.  ``options``
    are forwarded to the factory (e.g. ``get_kernel("sampled",
    rate=0.05)``).
    """
    factory = _FACTORIES.get(name) or _POLICY_FACTORIES.get(name)
    if factory is None:
        raise KernelError(
            f"unknown fetch-curve kernel {name!r}; available: "
            f"{', '.join(available_kernels())}; policy kernels: "
            f"{', '.join(available_policy_kernels())}"
        )
    return factory(**options)


def resolve_kernel(
    kernel: Union[str, FetchCurveProvider, None]
) -> FetchCurveProvider:
    """Coerce a kernel spec (name, instance, or ``None``) to an instance.

    ``None`` resolves to :data:`DEFAULT_KERNEL`; instances pass through
    unchanged so callers can hand a pre-seeded kernel down a call chain.
    """
    if kernel is None:
        return get_kernel(DEFAULT_KERNEL)
    if isinstance(kernel, FetchCurveProvider):
        return kernel
    return get_kernel(kernel)
