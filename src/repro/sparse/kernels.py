"""The ``REPRO_KERNEL`` variant selector for the local kernels.

Every local kernel (SpGEMM, merge, elementwise) exists in two
implementations that produce **bit-identical** results:

``python``
    The literal per-column/per-entry reference implementations — the
    semantic oracle the property tests compare everything against.
``numpy``
    Vectorised sort-and-reduce / key-intersection formulations; the fast
    path.

The selector value ``auto`` (the default) resolves to ``numpy``.  Any other
name is rejected up front with a :class:`ValueError`.

Selection is **process-global** and never part of a
:class:`~repro.experiments.config.RunConfig`: the variant changes how fast a
result is produced, never what the result (or any modelled counter) is, so
it must not perturb config hashes.  :func:`set_kernel_variant` also writes
``REPRO_KERNEL`` into ``os.environ`` so pool workers forked/spawned by the
experiment engine inherit the caller's choice.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "KERNEL_VARIANTS",
    "requested_kernel_variant",
    "resolve_kernel_variant",
    "set_kernel_variant",
    "kernel_variant",
]

#: accepted values of ``REPRO_KERNEL`` / ``--kernel``
KERNEL_VARIANTS = ("auto", "numpy", "python")

_ENV_VAR = "REPRO_KERNEL"

#: process-wide override installed by :func:`set_kernel_variant`
_forced: Optional[str] = None


def _validate(name: str) -> str:
    name = name.strip().lower()
    if name not in KERNEL_VARIANTS:
        raise ValueError(
            f"unknown kernel variant {name!r}; expected one of {KERNEL_VARIANTS}"
        )
    return name


def requested_kernel_variant() -> str:
    """The variant currently asked for (before ``auto`` is resolved)."""
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_VAR, "auto").strip().lower() or "auto"


def resolve_kernel_variant(name: Optional[str] = None) -> str:
    """Resolve ``name`` (or the process-wide request) to a runnable variant.

    ``auto`` becomes ``numpy``; unknown names raise :class:`ValueError`.
    """
    requested = _validate(name if name is not None else requested_kernel_variant())
    return "numpy" if requested == "auto" else requested


def set_kernel_variant(name: str) -> str:
    """Install ``name`` as the process-wide variant; returns the resolved one.

    Also exported through ``os.environ`` so experiment-pool workers (fork or
    spawn) resolve the same variant as the parent process.
    """
    global _forced
    _forced = _validate(name)
    os.environ[_ENV_VAR] = _forced
    return resolve_kernel_variant()


@contextmanager
def kernel_variant(name: str) -> Iterator[str]:
    """Temporarily select a variant (tests and the contract suite use this)."""
    global _forced
    prev_forced = _forced
    prev_env = os.environ.get(_ENV_VAR)
    resolved = set_kernel_variant(name)
    try:
        yield resolved
    finally:
        _forced = prev_forced
        if prev_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = prev_env
