"""quartosc's LAPACK and BLAS boundary: four routines bound through ctypes, and their calls.

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

Every foreign call quartosc makes is made here, with its arguments,
workspaces and info check: band_values (dsbevd) and LUSlot (dgbtrf,
dgbtrs, dsbmv); quartosc.diag keeps the numerics.  A negative info raises
ValueError naming the routine (_check).
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
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
#: dsbmv(uplo, n, k, alpha, a, lda, x, incx, beta, y, incy)
dsbmv = _bind(
    _blas, "dsbmv", _CHAR, _INT, _INT, _DOUBLE, _BUFFER, _INT, _BUFFER, _INT, _DOUBLE, _BUFFER, _INT
)


class ConvergenceFailure(RuntimeError):
    """LAPACK did not converge, or an inverse-iteration vector missed the rounding scale."""


def _check(routine: str, info: ctypes.c_int) -> None:
    """Raise ValueError if routine's info reports an illegal argument (info < 0)."""
    if info.value < 0:
        raise ValueError(f"{routine}: argument {-info.value} had an illegal value")


def band_values(band: np.ndarray) -> np.ndarray:
    """All eigenvalues of a (b + 1, n) lower band, ascending.

    LAPACK dsbevd with jobz 'N' (dsbtrd band reduction, then dsterf), with
    the arguments scipy.linalg.eigvals_banded(band, lower=True) passes it,
    so the values are bitwise that function's.  Raises ConvergenceFailure
    if dsbevd does not converge.
    """
    b, n = band.shape[0] - 1, band.shape[1]
    ab = np.array(band, dtype=float, order="F")  # dsbevd overwrites it
    w = np.empty(n)
    z = np.empty(1)  # not referenced for jobz 'N'
    work = np.empty(max(1, 2 * n))
    iwork = np.empty(1, dtype=np.intc)
    info = ctypes.c_int()
    dsbevd(
        b"N", b"L", ctypes.c_int(n), ctypes.c_int(b), ab.ctypes.data, ctypes.c_int(b + 1),
        w.ctypes.data, z.ctypes.data, ctypes.c_int(1), work.ctypes.data, ctypes.c_int(len(work)),
        iwork.ctypes.data, ctypes.c_int(1), ctypes.byref(info),
    )
    _check("dsbevd", info)
    if info.value > 0:
        raise ConvergenceFailure(f"dsbevd did not converge (LAPACK info={info.value})")
    return w


class LUSlot:
    """Inverse iteration's workspace for one symmetric band: its LU factors, pivots, n-vectors.

    band and factored are (b + 1, n) lower bands, band[d, c] = H[c + d, c];
    product multiplies by band, factor factors factored, and the slot keeps
    its own copy of each.  general holds factored mirrored once, row
    b + i - j holding H[i, j]; each factor copies it into rows b..3b of lu,
    the (3b + 1, n) general band, and dgbtrf writes its fill-in over rows
    0..b-1, which it does not read.  solve overwrites x; product writes H x
    into hx.  The arguments of the three calls, addresses included, are
    made once.
    """

    def __init__(self, band: np.ndarray, factored: np.ndarray) -> None:
        b, n = band.shape[0] - 1, band.shape[1]
        self.general = np.zeros((2 * b + 1, n), order="F")
        for d in range(b + 1):
            self.general[b + d, : n - d] = self.general[b - d, d:] = factored[d, : n - d]
        self.lu = np.empty((3 * b + 1, n), order="F")
        self.pivot = np.empty(n, dtype=np.intc)
        self.x = np.empty(n)
        self.info = ctypes.c_int()
        n_, b_, ldab = ctypes.c_int(n), ctypes.c_int(b), ctypes.c_int(3 * b + 1)
        lu, pivot, info = self.lu.ctypes.data, self.pivot.ctypes.data, ctypes.byref(self.info)
        self._factor_args = (n_, n_, b_, b_, lu, ldab, pivot, info)
        x = self.x.ctypes.data
        one = ctypes.c_int(1)
        self._solve_args = (b"N", n_, b_, b_, one, lu, ldab, pivot, x, n_, info)
        self.band = np.array(band, dtype=float, order="F")
        self.hx = np.empty(n)
        self._product_args = (
            b"L", n_, b_, ctypes.c_double(1.0), self.band.ctypes.data, ctypes.c_int(b + 1),
            x, one, ctypes.c_double(0.0), self.hx.ctypes.data, one,
        )

    def factor(self, shift: float, floor: float) -> None:
        """Factor H - shift I, H the factored band, into lu by dgbtrf.

        Pivots below floor are raised to it, sign kept, so an exactly singular
        H - shift I (dgbtrf's info > 0, left in info) still solves.
        """
        lu = self.lu
        b = len(self.general) // 2
        lu[b:] = self.general
        lu[2 * b] -= shift
        dgbtrf(*self._factor_args)
        _check("dgbtrf", self.info)
        u = lu[2 * b]
        if np.abs(u).min() < floor:  # rare: the masked floor costs more than this test
            tiny = np.abs(u) < floor
            u[tiny] = np.copysign(floor, u[tiny])

    def solve(self) -> None:
        """x = (H - shift I)^-1 x in place, by dgbtrs on the last factor's lu and pivots."""
        dgbtrs(*self._solve_args)
        _check("dgbtrs", self.info)

    def product(self) -> None:
        """hx = H x by dsbmv, bitwise scipy.linalg.blas.dsbmv(b, 1.0, band, x, lower=1)."""
        self.hx.fill(0.0)  # the zeroed y that scipy.linalg.blas.dsbmv passes with beta 0
        dsbmv(*self._product_args)

