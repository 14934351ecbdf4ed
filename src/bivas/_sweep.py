"""Build and load the compiled E-step sweep, group fits and table-row
parse (``_sweep.c``).

The library is compiled once with the system C compiler and cached next
to the package's bytecode, in ``__pycache__``; when that directory cannot
be used, in ``~/.cache/bivas`` (created 0700).  A cache directory is used
only when the current user owns it and no one else can write to it.  The
file name carries a hash of the source, the compiler and the flags, so an
edited source or another flag set builds a new library.  The compiler
writes to a temporary name that is then moved into place, so concurrent
builds never load a partial file.  A build into the package's own
``__pycache__`` removes the libraries of earlier sources there; the
per-user cache is never pruned, since other installs may share it.

Nothing is built or loaded on ``import bivas``: :func:`kernel` does it on
the first call that needs it, under a lock.  When no library can be built
or loaded, :func:`kernel` returns None, one line on the "bivas" logger
says why, the engines run the Python sweep and group-fit loop, and
:func:`bivas.io.read_design_table` parses every row in Python.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import logging
import os
import stat
import subprocess
import tempfile
import threading

import numpy as np

logger = logging.getLogger("bivas")

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_sweep.c")
COMPILER = "cc"
# no -ffast-math or -march=native: the kernel must round as the Python
# sweep does and run on any machine that shares the cache; -O3 packs the
# elementwise loops into SSE2 pairs, which round each element as before
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p
# name -> (restype, argtypes)
_SIGNATURES = {
    "sweep": (ctypes.c_int, [_i64, _i64] + [_ptr] * 11 + [_f64] * 2 + [_ptr] * 5),
    "group_fits": (None, [_i64, _i64] + [_ptr] * 6),
    "parse_row": (ctypes.c_int, [_ptr, _i64, _i64, _i64, _ptr]),
    "parse_rows": (ctypes.c_int, [_ptr] + [_i64] * 4 + [_ptr, _i64, _ptr]),
}

_lock = threading.Lock()
_loaded = None       # None: not tried yet; False: unavailable; else the CDLL


def cache_dirs():
    """Candidate cache directories, in order of preference."""
    return [os.path.join(os.path.dirname(SOURCE), "__pycache__"),
            os.path.join(os.path.expanduser("~"), ".cache", "bivas")]


def _private_dir(path):
    """Create ``path`` (0700) if needed; True when this user owns it, can
    write to it, and no other user can."""
    if not hasattr(os, "getuid"):
        return False
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
            and os.access(path, os.W_OK | os.X_OK))


def _build(path):
    """Compile the source to ``path`` through a temporary file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([COMPILER, *FLAGS, "-o", tmp, SOURCE, "-lm"],
                              capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            lines = (done.stderr or done.stdout).strip().splitlines()
            raise OSError(f"{COMPILER} exited {done.returncode}: "
                          + (lines[0] if lines else "no output"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _prune(cache, keep):
    """Remove every library in ``cache`` but ``keep``: they were built from
    earlier sources, which no longer load from this directory.  A file that
    a concurrent build removed first, or that cannot be removed, stays."""
    for path in glob.glob(os.path.join(cache, "_sweep-*.so")):
        if os.path.basename(path) != keep:
            try:
                os.remove(path)
            except OSError:
                pass


def _load():
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update("\0".join((COMPILER,) + FLAGS).encode())
    name = f"_sweep-{digest.hexdigest()[:16]}.so"
    dirs = cache_dirs()
    cache = next((d for d in dirs if _private_dir(d)), None)
    if cache is None:
        raise OSError("no private cache directory")
    path = os.path.join(cache, name)
    if not os.path.exists(path):
        _build(path)
        if cache == dirs[0]:
            _prune(cache, name)
    return open_library(path)


def open_library(path):
    """Load the library built at ``path`` with every function's bindings."""
    lib = ctypes.CDLL(path)
    for fn, (restype, argtypes) in _SIGNATURES.items():
        getattr(lib, fn).argtypes = argtypes
        getattr(lib, fn).restype = restype
    return lib


def kernel():
    """The compiled library, or None when it cannot be built or loaded."""
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                try:
                    _loaded = _load()
                except (OSError, subprocess.SubprocessError) as exc:
                    logger.warning("compiled E-step sweep and table parse "
                                   "unavailable (%s); using the Python sweeps "
                                   "and table parser", exc)
                    _loaded = False
    return _loaded if _loaded is not False else None


def address(array, shape):
    """The data address of a writable, C-contiguous float64 array of
    ``shape``: the kernel reads and writes it in place."""
    if (array.dtype != np.float64 or array.shape != shape
            or not array.flags.c_contiguous or not array.flags.writeable):
        raise ValueError(f"sweep needs a writable C-contiguous float64 array "
                         f"of shape {shape}, got {array.dtype} {array.shape}")
    return array.ctypes.data


def check(status):
    """Raise MemoryError for a kernel's failed workspace allocation."""
    if status != 0:
        raise MemoryError("E-step sweep workspace allocation failed")
