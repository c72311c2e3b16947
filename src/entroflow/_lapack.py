"""The four LAPACK routines entroflow calls, bound with ctypes in the OpenBLAS
that numpy has already loaded.

* ``dpttrf``/``dpttrs`` -- factor and solve symmetric positive definite
  tridiagonal systems (both implicit flow steps), through
  :class:`SPDTridiagonal`;
* ``dstebz``/``dstein`` -- bisection for selected eigenvalues and inverse
  iteration for their eigenvectors of a symmetric tridiagonal matrix (the
  spectral quotients), with the call and return shapes of
  ``scipy.linalg.lapack``.

numpy's wheels bundle an OpenBLAS that exports all four routines, and it is
mapped as soon as numpy is imported.  Calling them there keeps one OpenBLAS
and one BLAS worker pool per process: scipy's compiled ``_flapack``
extension would map a second OpenBLAS (``libscipy_openblas``) and start a
second worker thread, for four routines.
:func:`candidates` lists the libraries searched, in order: numpy's bundled
``libscipy_openblas64_`` (64-bit integers, symbols ``scipy_<name>_64_``),
then scipy's bundled ``libscipy_openblas`` (32-bit integers, symbols
``scipy_<name>_``), located without importing scipy.  The first library that
exports all four routines is used.  Wheels that bundle neither (numpy before
2.0, scipy before 1.13) and builds linked to Accelerate, MKL or a system
LAPACK fall back to scipy's ``_flapack`` extension (:class:`Flapack`), the
only path that runs there; if that is missing too, importing this module
raises ImportError naming the paths tried.

Through ctypes the routines take the Fortran ABI: every scalar is passed by
reference, and each character argument adds a trailing ``size_t`` length.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os

import numpy as np

__all__ = ["SPDTridiagonal", "dstebz", "dstein"]

# find_spec of a top-level package locates it without executing it
_SCIPY_SPEC = importlib.util.find_spec("scipy")
_SCIPY_DIR = (_SCIPY_SPEC.submodule_search_locations[0]
              if _SCIPY_SPEC is not None and _SCIPY_SPEC.submodule_search_locations else None)

_NAMES = ("dpttrf", "dpttrs", "dstebz", "dstein")
_P = ctypes.c_void_p
_ARGTYPES = {
    # N, D, E, INFO
    "dpttrf": (_P,) * 4,
    # N, NRHS, D, E, B, LDB, INFO
    "dpttrs": (_P,) * 7,
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
    # ISPLIT, WORK, IWORK, INFO, then the lengths of RANGE and ORDER
    "dstebz": (ctypes.c_char_p,) * 2 + (_P,) * 16 + (ctypes.c_size_t,) * 2,
    # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
    "dstein": (_P,) * 13,
}


def candidates() -> list[tuple[str, str, str, type]]:
    """(library path pattern, symbol prefix, symbol suffix, ctypes integer
    type) of each library searched, in search order: numpy's bundled ILP64
    OpenBLAS (``numpy.libs/`` in Linux wheels, ``numpy/.dylibs/`` in macOS
    ones), then scipy's LP64 one (``scipy.libs/``, ``scipy/.dylibs/``)."""
    packages = [(os.path.dirname(np.__file__), "libscipy_openblas64_*", "_64_", ctypes.c_int64)]
    if _SCIPY_DIR is not None:
        packages.append((_SCIPY_DIR, "libscipy_openblas*", "_", ctypes.c_int32))
    return [
        (os.path.join(libdir, pattern), "scipy_", suffix, cint)
        for pkg, pattern, suffix, cint in packages
        for libdir in (pkg + ".libs", os.path.join(pkg, ".dylibs"))
    ]


def _ptr(x) -> ctypes.c_void_p:
    """Pointer to the data of a numpy array or to a ctypes scalar; the caller
    keeps ``x`` alive while the pointer is in use."""
    return ctypes.c_void_p(x.ctypes.data if isinstance(x, np.ndarray) else ctypes.addressof(x))


def _vector(a, name: str) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional; got shape {a.shape}")
    return a


def _tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    d, e = _vector(d, "d"), _vector(e, "e")
    if len(d) < 1 or len(e) != len(d) - 1:
        raise ValueError(
            f"need n >= 1 diagonal and n - 1 off-diagonal entries; got {len(d)}, {len(e)}"
        )
    return d, e


class Lapack:
    """The four routines of one LAPACK library, bound with ctypes.

    ``cint`` is the library's ctypes integer type and ``itype`` the matching
    numpy dtype, used by the integer arrays of :meth:`dstebz` and
    :meth:`dstein`.  Raises OSError if the library cannot be loaded,
    AttributeError if it lacks one of the routines.
    """

    def __init__(self, path: str, prefix: str, suffix: str, cint: type):
        # CDLL of a library already mapped only reuses its handle
        lib = ctypes.CDLL(path)
        for name in _NAMES:
            fn = getattr(lib, prefix + name + suffix)
            fn.argtypes = _ARGTYPES[name]
            fn.restype = None
            setattr(self, "_" + name, fn)
        self.path = path
        self.cint = cint
        self.itype = np.dtype(cint)

    def dstebz(self, d, e, range, vl, vu, il, iu, tol, order):
        """m, w, iblock, isplit, info = dstebz(d, e, range, vl, vu, il, iu, tol, order).

        ``range`` 0, 1 or 2 selects all eigenvalues, those in (vl, vu], or
        those with indices il..iu; ``order`` is "B" (by block) or "E"
        (entire matrix).  ``w``, ``iblock`` and ``isplit`` have length n;
        the first m entries of ``w`` and ``iblock`` are set.
        """
        if range not in (0, 1, 2):
            raise ValueError(f"range must be 0, 1 or 2; got {range!r}")
        d, e = _tridiagonal(d, e)
        n = len(d)
        cint, real = self.cint, ctypes.c_double
        m, nsplit, info = cint(), cint(), cint()
        w = np.zeros(n)
        iblock, isplit = np.zeros(n, self.itype), np.zeros(n, self.itype)
        work, iwork = np.empty(4 * n), np.empty(3 * n, self.itype)
        refs = (cint(n), real(vl), real(vu), cint(il), cint(iu), real(tol), d, e, m, nsplit,
                w, iblock, isplit, work, iwork, info)
        self._dstebz(b"AVI"[range:range + 1], order.encode(), *map(_ptr, refs), 1, 1)
        return m.value, w, iblock, isplit, info.value

    def dstein(self, d, e, w, iblock, isplit):
        """z, info = dstein(d, e, w, iblock, isplit): the eigenvectors of the
        eigenvalues ``w`` (block indices ``iblock``, split points ``isplit``,
        as :meth:`dstebz` returns them) as the columns of the n x len(w)
        Fortran-ordered array ``z``."""
        d, e = _tridiagonal(d, e)
        w = _vector(w, "w")
        n, m = len(d), len(w)
        iblock = np.ascontiguousarray(iblock, self.itype)
        isplit = np.ascontiguousarray(isplit, self.itype)
        if m > n or len(iblock) < m or len(isplit) < n:
            raise ValueError(
                "need len(w) <= n, len(iblock) >= len(w) and len(isplit) >= n; "
                f"got n={n}, {m}, {len(iblock)}, {len(isplit)}"
            )
        info = self.cint()
        z = np.zeros((n, m), order="F")
        work, iwork, ifail = np.empty(5 * n), np.empty(n, self.itype), np.empty(m, self.itype)
        n_ = self.cint(n)  # also LDZ
        refs = (n_, d, e, self.cint(m), w, iblock, isplit, z, n_, work, iwork, ifail, info)
        self._dstein(*map(_ptr, refs))
        return z, info.value

    def attach(self, system: SPDTridiagonal) -> None:
        """Set the dpttrf/dpttrs calls of ``system`` on its own buffers."""
        # N (also LDB), NRHS and INFO, passed by reference; ``system`` keeps
        # them alive, since the pointers to them do not
        system._n, system._nrhs, system._info = self.cint(system.n), self.cint(1), self.cint()
        n_, nrhs, d, e, b, info = map(
            _ptr, (system._n, system._nrhs, system.d, system.e, system.b, system._info)
        )
        system._pttrf, system._pttrf_args = self._dpttrf, (n_, d, e, info)
        system._pttrs, system._pttrs_args = self._dpttrs, (n_, nrhs, d, e, b, n_, info)


def _f2py_off(e: np.ndarray) -> np.ndarray:
    # the f2py wrappers reject the empty off-diagonal of a 1 x 1 matrix,
    # which LAPACK does not read
    return e if len(e) else np.zeros(1)


class Flapack:
    """The four routines of scipy's compiled f2py extension
    ``scipy.linalg._flapack``, loaded straight from its file in
    ``linalg_dir`` (it needs only numpy, and importing ``scipy.linalg``
    would load scipy's array-API layer).  It maps scipy's LAPACK next to
    numpy's, so it is the fallback for installations with no bundled
    ``libscipy_openblas``.  Raises ImportError if the extension is missing.
    """

    def __init__(self, linalg_dir: str | None):
        name = "scipy.linalg._flapack"
        paths = [] if linalg_dir is None else [
            os.path.join(linalg_dir, "_flapack" + suffix)
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        path = next((p for p in paths if os.path.exists(p)), None)
        if path is None:
            raise ImportError(f"no compiled {name} extension in {linalg_dir or 'scipy (not found)'}")
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        spec = importlib.util.spec_from_loader(name, loader)
        self._f = importlib.util.module_from_spec(spec)
        loader.exec_module(self._f)
        self.path = path

    def dstebz(self, d, e, range, vl, vu, il, iu, tol, order):
        """As :meth:`Lapack.dstebz`."""
        d, e = _tridiagonal(d, e)
        return self._f.dstebz(d, _f2py_off(e), range, vl, vu, il, iu, tol, order)

    def dstein(self, d, e, w, iblock, isplit):
        """As :meth:`Lapack.dstein`."""
        d, e = _tridiagonal(d, e)
        return self._f.dstein(d, _f2py_off(e), w, iblock, isplit)

    def _pttrf(self, d, e, info):
        # f2py overwrites contiguous float64 arrays in place when asked to
        info.value = self._f.dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]

    def _pttrs(self, d, e, b, info):
        info.value = self._f.dpttrs(d, e, b, overwrite_b=1)[1]

    def attach(self, system: SPDTridiagonal) -> None:
        """Set the dpttrf/dpttrs calls of ``system`` on its own buffers."""
        system._info = ctypes.c_int()
        system._pttrf, system._pttrf_args = self._pttrf, (system.d, system.e, system._info)
        system._pttrs, system._pttrs_args = self._pttrs, (
            system.d, system.e, system.b, system._info)


def bind(cands: list[tuple[str, str, str, type]]) -> Lapack:
    """The routines of the first library in ``cands`` (entries as
    :func:`candidates` gives them) that exports all four; ImportError naming
    every path tried if none does."""
    tried = []
    for pattern, prefix, suffix, cint in cands:
        paths = sorted(glob.glob(pattern))
        if not paths:
            tried.append(f"{pattern} (no such file)")
        for path in paths:
            try:
                return Lapack(path, prefix, suffix, cint)
            except (OSError, AttributeError) as exc:
                tried.append(f"{path} ({exc})")
    raise ImportError(
        f"no LAPACK library exporting {', '.join(_NAMES)}; tried: {'; '.join(tried)}"
    )


def load(cands: list[tuple[str, str, str, type]], linalg_dir: str | None) -> Lapack | Flapack:
    """:func:`bind` of ``cands``, else :class:`Flapack` from ``linalg_dir``;
    ImportError naming every path tried if neither loads."""
    try:
        return bind(cands)
    except ImportError as err:
        try:
            return Flapack(linalg_dir)
        except ImportError as err2:
            raise ImportError(f"{err}; {err2}") from None


_LAPACK = load(candidates(), None if _SCIPY_DIR is None else os.path.join(_SCIPY_DIR, "linalg"))
dstebz = _LAPACK.dstebz
dstein = _LAPACK.dstein


class SPDTridiagonal:
    """A symmetric positive definite tridiagonal system of order n that owns
    its diagonal ``d``, off-diagonal ``e`` and right-hand side ``b``.

    Write ``d`` and ``e`` in place, then :meth:`factor` overwrites them with
    the L D L^T factors (LAPACK dpttrf); write ``b`` in place, then
    :meth:`solve` overwrites it with the solution (dpttrs).  Both return
    LAPACK's ``info``.  The library's ``attach`` builds the call arguments
    once, so that a ctypes call costs about what one through scipy's f2py
    wrapper does.
    """

    def __init__(self, n: int, lapack: Lapack | Flapack = _LAPACK):
        self.n = n
        self.d, self.e, self.b = np.empty(n), np.empty(n - 1), np.empty(n)
        lapack.attach(self)

    def factor(self) -> int:
        self._pttrf(*self._pttrf_args)
        return self._info.value

    def solve(self) -> int:
        self._pttrs(*self._pttrs_args)
        return self._info.value
