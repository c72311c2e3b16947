"""The LAPACK routines loaded without scipy.linalg, and the eigensolve built on them."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from entroflow.errors import SolverDiverged
from entroflow.spectrum import _tridiag_matvec, smallest_eigenpair

_NAMES = ("dpttrf", "dpttrs", "dstebz", "dstein")


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg would bring scipy's array-API layer, numpy.f2py,
    # numpy.testing and numpy.ma into every command's start-up
    out = _python(
        "import sys, entroflow.cli; "
        "print(sorted({'scipy', 'scipy.linalg', 'scipy._lib._array_api'} & set(sys.modules)))"
    )
    assert out == "[]"


@pytest.mark.parametrize("first", ["entroflow._lapack", "scipy.linalg.lapack"])
def test_routines_are_scipys_in_either_import_order(first):
    second = "scipy.linalg.lapack" if first == "entroflow._lapack" else "entroflow._lapack"
    out = _python(
        f"import importlib; a = importlib.import_module({first!r}); "
        f"b = importlib.import_module({second!r}); "
        f"print(all(getattr(a, n) is getattr(b, n) for n in {_NAMES!r}))"
    )
    assert out == "True"


def test_eigenpair_matches_eigh_tridiagonal_bit_for_bit(rng):
    for _ in range(25):
        n = int(rng.integers(2, 400))
        diag = rng.uniform(-3.0, 3.0, n)
        off = rng.uniform(-0.9, 0.9, n - 1)
        lam, vec, res, _, _ = smallest_eigenpair(diag, off)
        _, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                tol=2.0 * np.finfo(float).tiny, lapack_driver="stebz")
        x = v[:, 0] / np.linalg.norm(v[:, 0])
        tx = _tridiag_matvec(diag, off, x)
        assert np.array_equal(vec, x)
        assert lam == float(np.dot(x, tx))
        assert res == float(np.linalg.norm(tx - lam * x))


def test_one_by_one_matrix():
    lam, vec, res, _, _ = smallest_eigenpair(np.array([2.5]), np.array([]))
    assert (lam, vec.tolist(), res) == (2.5, [1.0], 0.0)


@pytest.mark.parametrize("info", [-2, 1, 4])
def test_stebz_failure_raises(monkeypatch, rng, info):
    def stebz(d, e, *args):
        n = len(d)
        return 0, np.zeros(n), np.zeros(n, np.int32), np.zeros(n, np.int32), info

    monkeypatch.setattr("entroflow.spectrum.dstebz", stebz)
    with pytest.raises(SolverDiverged, match="dstebz"):
        smallest_eigenpair(rng.uniform(0.5, 3.0, 50), rng.uniform(-0.9, 0.9, 49))


def test_stein_failure_raises(monkeypatch, rng):
    # stein info > 0: that many eigenvectors failed to converge
    monkeypatch.setattr("entroflow.spectrum.dstein",
                        lambda d, e, w, *_: (np.ones((len(d), len(w))), len(w)))
    with pytest.raises(SolverDiverged, match="dstein"):
        smallest_eigenpair(rng.uniform(0.5, 3.0, 50), rng.uniform(-0.9, 0.9, 49))
