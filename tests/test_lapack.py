"""The LAPACK routines bound in the OpenBLAS numpy loaded, and the eigensolve built on them."""

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg.lapack as scipy_lapack
from scipy.linalg import eigh_tridiagonal

from entroflow import _lapack
from entroflow.errors import SolverDiverged
from entroflow.spectrum import _tridiag_matvec, smallest_eigenpair


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


def test_cli_maps_one_openblas():
    # scipy's _flapack extension would map scipy's own OpenBLAS (and start
    # its worker thread) next to the one numpy has loaded
    out = _python(
        "import os, sys\n"
        "from entroflow.cli import main\n"
        "code = main(['lambda1', '--p', '1.5', '--potential', 'gaussian',"
        " '--domain=-6:6', '--n', '301'])\n"
        "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
        "libs = {line.split()[-1] for line in maps.splitlines() if 'openblas' in line}\n"
        "print(code, 'scipy.linalg._flapack' in sys.modules,"
        " *sorted(os.path.basename(p) for p in libs))\n"
    )
    code, flapack, *libs = out.splitlines()[-1].split(" ")
    assert (code, flapack) == ("0", "False")
    if sys.platform != "linux":
        pytest.skip("/proc/self/maps is Linux only")
    assert len(libs) == 1
    assert not libs[0].startswith("libscipy_openblas-")


def test_numpy_library_comes_first():
    first = _lapack.candidates()[0]
    found = sorted(glob.glob(first[0]))
    if not found:
        pytest.skip("numpy bundles no OpenBLAS on this installation")
    assert _lapack._LAPACK.path == found[0]
    assert _lapack._LAPACK.itype == np.int64


def test_bind_names_every_path_tried():
    numpy_libs = sorted(glob.glob(_lapack.candidates()[0][0]))
    cands = [("/nonexistent/libscipy_openblas*", "scipy_", "_", ctypes.c_int32)]
    # a library that exists but exports none of the routines under this suffix
    cands += [(path, "scipy_", "_no_such_suffix_", ctypes.c_int64) for path in numpy_libs]
    with pytest.raises(ImportError) as err:
        _lapack.bind(cands)
    message = str(err.value)
    assert "/nonexistent/libscipy_openblas*" in message
    for path in numpy_libs:
        assert path in message


LINALG_DIR = os.path.dirname(scipy_lapack.__file__)


def test_load_falls_back_to_scipys_extension():
    missing = [("/nonexistent/libscipy_openblas*", "scipy_", "_", ctypes.c_int32)]
    assert isinstance(_lapack.load(missing, LINALG_DIR), _lapack.Flapack)
    with pytest.raises(ImportError) as err:
        _lapack.load(missing, "/nonexistent/linalg")
    assert "/nonexistent/libscipy_openblas*" in str(err.value)
    assert "/nonexistent/linalg" in str(err.value)


def _present_libraries():
    """Every candidate library found on this installation, bound on its own,
    then the fallback extension."""
    libs = []
    for cand in _lapack.candidates():
        try:
            libs.append(_lapack.bind([cand]))
        except ImportError:
            pass
    return libs + [_lapack.Flapack(LINALG_DIR)]


LIBRARIES = _present_libraries()


@pytest.fixture(params=LIBRARIES, ids=[os.path.basename(lib.path) for lib in LIBRARIES])
def lapack(request):
    return request.param


@pytest.mark.parametrize("n", [2, 3, 101, 2001])
def test_pttrf_pttrs_match_scipy_bit_for_bit(lapack, n):
    rng = np.random.default_rng(n)
    system = _lapack.SPDTridiagonal(n, lapack)
    # diagonally dominant, hence positive definite
    d, e, b = rng.uniform(2.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1), rng.standard_normal(n)
    system.d[:], system.e[:] = d, e
    fd, fe, info = scipy_lapack.dpttrf(d, e)
    assert system.factor() == info == 0
    assert np.array_equal(system.d, fd) and np.array_equal(system.e, fe)
    system.b[:] = b
    x, info = scipy_lapack.dpttrs(fd, fe, b)
    assert system.solve() == info == 0
    assert np.array_equal(system.b, x)
    # not positive definite: the leading minor of order k + 1 is not positive
    k = int(rng.integers(0, n))
    d[k] = -1.0
    system.d[:], system.e[:] = d, e
    info = scipy_lapack.dpttrf(d, e)[2]
    assert system.factor() == info > 0


@pytest.mark.parametrize("n", [2, 3, 101, 2001])
@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
def test_stebz_stein_match_scipy_bit_for_bit(lapack, n, split):
    rng = np.random.default_rng(n)
    d, e = rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1)
    if split:
        e[rng.choice(n - 1, size=max(1, (n - 1) // 10), replace=False)] = 0.0
    tiny = 2.0 * np.finfo(float).tiny
    # the smallest eigenvalue (as spectrum calls it), three by index, those
    # in (-1, -0.8], and all of them (bisection for all 2001 takes seconds)
    cases = [(2, 0.0, 0.0, 1, 1, tiny), (2, 0.0, 0.0, 1, min(3, n), tiny),
             (1, -1.0, -0.8, 0, 0, 0.0)]
    if n <= 101:
        cases.append((0, 0.0, 0.0, 0, 0, 0.0))
    for args in cases:
        got = lapack.dstebz(d, e, *args, "B")
        want = scipy_lapack.dstebz(d, e, *args, "B")
        assert got[0] == want[0] and got[4] == want[4] == 0
        for a, b in zip(got[1:4], want[1:4]):
            assert np.array_equal(a, b)
        m, w, iblock, isplit, _ = got
        if split:
            assert np.count_nonzero(isplit) > 1  # nsplit > 1
        # vectors for the first few eigenvalues only: all 2001 take seconds
        k = min(m, 8)
        z, info = lapack.dstein(d, e, w[:k], iblock, isplit)
        z_want, info_want = scipy_lapack.dstein(d, e, w[:k], iblock, isplit)
        assert info == info_want == 0
        assert z.shape == z_want.shape and z.flags.f_contiguous
        assert np.array_equal(z, z_want)


def test_one_by_one_matrix_in_every_library(lapack):
    d, e = np.array([2.5]), np.array([])
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, "B")
    assert (m, w.tolist(), info) == (1, [2.5], 0)
    z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    assert (z.tolist(), info) == ([[1.0]], 0)


def test_fallback_runs_the_flows_and_the_eigensolve(monkeypatch, rng, gauss_pot, gauss_grid_small):
    from entroflow import flows, spectrum

    fallback = _lapack.Flapack(LINALG_DIR)
    diag, off = rng.uniform(-3.0, 3.0, 200), rng.uniform(-0.9, 0.9, 199)
    runs = [(flows.run_linear, flows.FlowConfig(kind="linear", p=1.5, init="odd:0.2",
                                                t_end=0.05, dt=1e-3)),
            (flows.run_pme, flows.FlowConfig(kind="pme", p=1.5, m=1.2, t_end=0.05, dt=1e-3))]

    def solve_all():
        return smallest_eigenpair(diag, off), [run(cfg, gauss_pot, gauss_grid_small)
                                               for run, cfg in runs]

    (lam, vec, *_), traces = solve_all()
    monkeypatch.setattr(spectrum, "dstebz", fallback.dstebz)
    monkeypatch.setattr(spectrum, "dstein", fallback.dstein)
    monkeypatch.setattr(flows, "SPDTridiagonal", lambda n: _lapack.SPDTridiagonal(n, fallback))
    (lam_fb, vec_fb, *_), traces_fb = solve_all()
    assert lam_fb == lam and np.array_equal(vec_fb, vec)
    for got, want in zip(traces_fb, traces):
        assert np.array_equal(got.E, want.E)
        assert np.array_equal(got.fields[-1][1], want.fields[-1][1])


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
