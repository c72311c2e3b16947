"""The four LAPACK routines entroflow calls, bound with ctypes in the OpenBLAS
that numpy has already loaded.

* ``dpttrf``/``dpttrs`` -- factor and solve symmetric positive definite
  tridiagonal systems (both implicit flow steps), through
  :class:`SPDTridiagonal`;
* ``dstebz``/``dstein`` -- bisection for the smallest eigenvalue of a
  symmetric tridiagonal matrix and inverse iteration for its eigenvector
  (the spectral quotients), through :func:`lowest`.

numpy's wheels (2.0 and later) bundle an OpenBLAS, ``libscipy_openblas64_``
(64-bit integers, symbols ``scipy_<name>_64_``), that exports all four
routines, and it is mapped as soon as numpy is imported.  Calling them there
keeps one OpenBLAS and one BLAS worker pool per process: scipy's compiled
``_flapack`` extension would map a second OpenBLAS and start a second worker
thread, for four routines.  :func:`candidates` lists where numpy's library
is searched.  Where numpy bundles none (numpy before 2.0, builds linked to
Accelerate, MKL or a system LAPACK), the routines come from scipy's
``_flapack`` extension (:class:`Flapack`), located without importing scipy;
if that is missing too, importing this module raises ImportError naming the
paths tried.

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

__all__ = ["SPDTridiagonal", "lowest"]

# find_spec of a top-level package locates it without executing it
_SCIPY_SPEC = importlib.util.find_spec("scipy")
_SCIPY_DIR = (_SCIPY_SPEC.submodule_search_locations[0]
              if _SCIPY_SPEC is not None and _SCIPY_SPEC.submodule_search_locations else None)

_NAMES = ("dpttrf", "dpttrs", "dstebz", "dstein")
_INT = ctypes.c_int64
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
# an absolute bisection tolerance of 2 tiny asks dstebz for full accuracy
_ABSTOL = 2.0 * np.finfo(float).tiny


def candidates() -> list[str]:
    """Path patterns of numpy's bundled ILP64 OpenBLAS, in search order:
    ``numpy.libs/`` (Linux wheels), then ``numpy/.dylibs/`` (macOS ones)."""
    pkg = os.path.dirname(np.__file__)
    return [os.path.join(libdir, "libscipy_openblas64_*")
            for libdir in (pkg + ".libs", os.path.join(pkg, ".dylibs"))]


def _ptr(x) -> ctypes.c_void_p:
    """Pointer to the data of a numpy array or to a ctypes scalar; the caller
    keeps ``x`` alive while the pointer is in use."""
    return ctypes.c_void_p(x.ctypes.data if isinstance(x, np.ndarray) else ctypes.addressof(x))


def _tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    d, e = (np.ascontiguousarray(a, dtype=np.float64) for a in (d, e))
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError(f"d and e must be one-dimensional; got shapes {d.shape}, {e.shape}")
    if len(d) < 1 or len(e) != len(d) - 1:
        raise ValueError(
            f"need n >= 1 diagonal and n - 1 off-diagonal entries; got {len(d)}, {len(e)}"
        )
    return d, e


class Lapack:
    """The four routines of numpy's bundled OpenBLAS at ``path``, bound with
    ctypes.  Raises OSError if the library cannot be loaded, AttributeError
    if it lacks one of the routines.
    """

    def __init__(self, path: str):
        # CDLL of a library already mapped only reuses its handle
        lib = ctypes.CDLL(path)
        for name in _NAMES:
            fn = getattr(lib, f"scipy_{name}_64_")
            fn.argtypes = _ARGTYPES[name]
            fn.restype = None
            setattr(self, "_" + name, fn)
        self.path = path

    def lowest(self, d, e) -> tuple[np.ndarray, int, int]:
        """z, stebz_info, stein_info = lowest(d, e): the eigenvector ``z`` of
        the smallest eigenvalue of the symmetric tridiagonal matrix with
        diagonal ``d`` and off-diagonal ``e``.

        dstebz bisects for eigenvalue 1 (RANGE "I", IL = IU = 1, ORDER "B",
        ABSTOL 2 tiny), then dstein finds its vector by inverse iteration:
        the calls of ``scipy.linalg.eigh_tridiagonal(d, e, select="i",
        select_range=(0, 0), tol=2 tiny, lapack_driver="stebz")``.  dstein
        is skipped, and ``z`` left zero, if dstebz reports an error.
        """
        d, e = _tridiagonal(d, e)
        n = len(d)
        m, nsplit, ifail, stebz_info, stein_info = _INT(), _INT(), _INT(), _INT(), _INT()
        w, z, work = np.zeros(n), np.zeros(n), np.empty(5 * n)
        iblock, isplit = np.zeros(n, np.int64), np.zeros(n, np.int64)
        iwork = np.empty(3 * n, np.int64)
        n_, one, zero = _INT(n), _INT(1), ctypes.c_double(0.0)
        refs = (n_, zero, zero, one, one, ctypes.c_double(_ABSTOL), d, e, m, nsplit,
                w, iblock, isplit, work, iwork, stebz_info)
        self._dstebz(b"I", b"B", *map(_ptr, refs), 1, 1)
        if stebz_info.value == 0:
            # M = 1 and LDZ = n
            refs = (n_, d, e, one, w, iblock, isplit, z, n_, work, iwork, ifail, stein_info)
            self._dstein(*map(_ptr, refs))
        return z, stebz_info.value, stein_info.value

    def attach(self, system: SPDTridiagonal) -> None:
        """Set the dpttrf/dpttrs calls of ``system`` on its own buffers."""
        # N (also LDB), NRHS and INFO, passed by reference; ``system`` keeps
        # them alive, since the pointers to them do not
        system._n, system._nrhs, system._info = _INT(system.n), _INT(1), _INT()
        n_, nrhs, d, e, b, info = map(
            _ptr, (system._n, system._nrhs, system.d, system.e, system.b, system._info)
        )
        system._pttrf, system._pttrf_args = self._dpttrf, (n_, d, e, info)
        system._pttrs, system._pttrs_args = self._dpttrs, (n_, nrhs, d, e, b, n_, info)


class Flapack:
    """The four routines of scipy's compiled f2py extension
    ``scipy.linalg._flapack``, loaded straight from its file in
    ``linalg_dir`` (it needs only numpy, and importing ``scipy.linalg``
    would load scipy's array-API layer).  It maps scipy's LAPACK next to
    numpy's, so it is the fallback for installations where numpy bundles no
    OpenBLAS.  Raises ImportError if the extension is missing.
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

    def lowest(self, d, e) -> tuple[np.ndarray, int, int]:
        """As :meth:`Lapack.lowest`."""
        d, e = _tridiagonal(d, e)
        # the f2py wrappers reject the empty off-diagonal of a 1 x 1 matrix,
        # which LAPACK does not read
        e = e if len(e) else np.zeros(1)
        _, w, iblock, isplit, info = self._f.dstebz(d, e, 2, 0.0, 0.0, 1, 1, _ABSTOL, "B")
        if info != 0:
            return np.zeros(len(d)), info, 0
        z, info = self._f.dstein(d, e, w[:1], iblock, isplit)
        return z[:, 0], 0, info

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


def load(patterns: list[str], linalg_dir: str | None) -> Lapack | Flapack:
    """:class:`Lapack` of the first library matching ``patterns`` (as
    :func:`candidates` gives them) that exports all four routines, else
    :class:`Flapack` from ``linalg_dir``; ImportError naming every path
    tried if neither loads."""
    tried = []
    for pattern in patterns:
        paths = sorted(glob.glob(pattern))
        if not paths:
            tried.append(f"{pattern} (no such file)")
        for path in paths:
            try:
                return Lapack(path)
            except (OSError, AttributeError) as exc:
                tried.append(f"{path} ({exc})")
    try:
        return Flapack(linalg_dir)
    except ImportError as exc:
        tried.append(str(exc))
    raise ImportError(
        f"no LAPACK library exporting {', '.join(_NAMES)}; tried: {'; '.join(tried)}"
    )


_LAPACK = load(candidates(), None if _SCIPY_DIR is None else os.path.join(_SCIPY_DIR, "linalg"))
lowest = _LAPACK.lowest


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
