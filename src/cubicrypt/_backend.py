"""Kernel backend selection.

Imports the compiled extension when it is present, otherwise the
pure-Python kernels. ``CUBICRYPT_PURE=1`` in the environment forces the
fallback (useful for benchmarking and for checking backend parity).
"""

import os

if os.environ.get("CUBICRYPT_PURE"):
    from cubicrypt import _purepy as _impl
else:
    try:
        from cubicrypt import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        from cubicrypt import _purepy as _impl  # type: ignore[no-redef]

BACKEND: str = _impl.BACKEND
run_orbit = _impl.run_orbit
normalize_block = _impl.normalize_block
keystream = _impl.keystream
byte_counts = _impl.byte_counts


def available_backends():
    """Return the importable kernel modules keyed by backend name."""
    backends = {}
    from cubicrypt import _purepy

    backends[_purepy.BACKEND] = _purepy
    try:
        from cubicrypt import _core
    except ImportError:
        pass
    else:
        backends[_core.BACKEND] = _core
    return backends
