"""The five LAPACK and BLAS routines quartosc calls, bound through ctypes.

scipy ships LAPACK and BLAS with a C-level API: its extension modules
scipy.linalg.cython_lapack and scipy.linalg.cython_blas export every
routine as a capsule in __pyx_capi__.  Those two files are loaded here by
path, from next to scipy.__file__, so scipy.linalg itself, most of a
cold run's start-up time and memory, is never imported.  Where the files
are not in scipy's layout, the same modules are imported by name, which
imports scipy.linalg; they export the same capsules.  Either way the
routines are the ones scipy.linalg's own wrappers call, in the same
library, so the same arguments give bitwise the same results.  A ctypes
foreign call releases the GIL while it runs; the f2py wrappers behind
scipy.linalg hold it.
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _extension(name: str):
    """scipy.linalg's extension module name: loaded by path, or else imported by name."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:  # imported already: leave its sys.modules entry alone
        return sys.modules[qualified]
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(qualified, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # A Cython module enters itself in sys.modules.  Taken out again, a later
            # import of scipy.linalg loads it the usual way, gets this same module back
            # and binds it as an attribute of scipy.linalg.
            sys.modules.pop(qualified, None)
            return module
    return importlib.import_module(qualified)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bind(module, name: str, *argtypes):
    """The routine module exports as name, as a ctypes function returning nothing."""
    capsule = module.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, _capsule_name(capsule)))


_lapack = _extension("cython_lapack")
_blas = _extension("cython_blas")

_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_BUFFER = ctypes.c_void_p  # the address of a numpy array made by the caller

#: dsbevd(jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, iwork, liwork, info)
dsbevd = _bind(
    _lapack, "dsbevd",
    _CHAR, _CHAR, _INT, _INT, _BUFFER, _INT, _BUFFER, _BUFFER, _INT, _BUFFER, _INT, _BUFFER,
    _INT, _INT,
)
#: dgbtrf(m, n, kl, ku, ab, ldab, ipiv, info)
dgbtrf = _bind(_lapack, "dgbtrf", _INT, _INT, _INT, _INT, _BUFFER, _INT, _BUFFER, _INT)
#: dgbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info)
dgbtrs = _bind(
    _lapack, "dgbtrs", _CHAR, _INT, _INT, _INT, _INT, _BUFFER, _INT, _BUFFER, _BUFFER, _INT, _INT
)
#: dgeqp3(m, n, a, lda, jpvt, tau, work, lwork, info)
dgeqp3 = _bind(
    _lapack, "dgeqp3", _INT, _INT, _BUFFER, _INT, _BUFFER, _BUFFER, _BUFFER, _INT, _INT
)
#: dsbmv(uplo, n, k, alpha, a, lda, x, incx, beta, y, incy)
dsbmv = _bind(
    _blas, "dsbmv",
    _CHAR, _INT, _INT, _DOUBLE, _BUFFER, _INT, _BUFFER, _INT, _DOUBLE, _BUFFER, _INT,
)
