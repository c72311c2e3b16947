"""The four LAPACK routines entroflow calls, without importing scipy.linalg.

Importing ``scipy.linalg`` loads scipy's array-API layer and with it
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: about 0.3 s of start-up
for every CLI command, against a few milliseconds for the compiled f2py
extension ``scipy.linalg._flapack`` that holds the routines.  That extension
needs only numpy, so it is loaded straight from its file, under its own
name.  CPython keeps single-phase extension modules in ``sys.modules`` and
caches them by file, so a later ``import scipy.linalg`` (in either order)
reuses this very module and the functions here are the objects
``scipy.linalg.lapack`` exports.

* ``dpttrf``/``dpttrs`` -- factor and solve symmetric positive definite
  tridiagonal systems (both implicit flow steps);
* ``dstebz``/``dstein`` -- bisection for selected eigenvalues and inverse
  iteration for their eigenvectors of a symmetric tridiagonal matrix (the
  spectral quotients).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

__all__ = ["dpttrf", "dpttrs", "dstebz", "dstein"]


def _load_flapack():
    name = "scipy.linalg._flapack"
    # find_spec of a top-level package locates it without executing it
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    linalg_dir = os.path.join(scipy_dir, "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if os.path.exists(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            spec = importlib.util.spec_from_loader(name, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled {name} extension in {linalg_dir}")


_flapack = _load_flapack()
dpttrf = _flapack.dpttrf
dpttrs = _flapack.dpttrs
dstebz = _flapack.dstebz
dstein = _flapack.dstein
