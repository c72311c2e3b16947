"""The LAPACK routines bound in the OpenBLAS numpy loaded, and the eigensolve built on them."""

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
    found = sorted(glob.glob(_lapack.candidates()[0]))
    if not found:
        pytest.skip("numpy bundles no OpenBLAS on this installation")
    assert isinstance(_lapack._LAPACK, _lapack.Lapack)
    assert _lapack._LAPACK.path == found[0]


LINALG_DIR = os.path.dirname(scipy_lapack.__file__)


def test_load_names_every_path_tried(tmp_path):
    # no match, a file that is no library, and a library that lacks the
    # scipy_<name>_64_ symbols (scipy's _flapack extension)
    fake = tmp_path / "libscipy_openblas64_fake.so"
    fake.write_text("not a library")
    patterns = ["/nonexistent/libscipy_openblas64_*", str(fake),
                _lapack.Flapack(LINALG_DIR).path]
    with pytest.raises(ImportError) as err:
        _lapack.load(patterns, "/nonexistent/linalg")
    message = str(err.value)
    for text in patterns + ["/nonexistent/linalg"]:
        assert text in message


def test_load_falls_back_to_scipys_extension():
    assert isinstance(_lapack.load(["/nonexistent/libscipy_openblas64_*"], LINALG_DIR),
                      _lapack.Flapack)


def _present_libraries():
    """Every numpy library found on this installation, then the fallback
    extension."""
    libs = [_lapack.Lapack(path)
            for pattern in _lapack.candidates() for path in sorted(glob.glob(pattern))]
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


@pytest.mark.parametrize("n", [1, 2, 3, 101, 2001])
@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
def test_lowest_matches_eigh_tridiagonal_bit_for_bit(lapack, n, split):
    rng = np.random.default_rng(n)
    d, e = rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1)
    if split and n > 1:
        e[rng.choice(n - 1, size=max(1, (n - 1) // 10), replace=False)] = 0.0
    _, want = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                               tol=2.0 * np.finfo(float).tiny, lapack_driver="stebz")
    z, stebz_info, stein_info = lapack.lowest(d, e)
    assert stebz_info == stein_info == 0
    assert np.array_equal(z, want[:, 0])


def test_lowest_checks_shapes(lapack):
    with pytest.raises(ValueError, match="one-dimensional"):
        lapack.lowest(np.ones((2, 2)), np.ones(1))
    with pytest.raises(ValueError, match="n - 1 off-diagonal"):
        lapack.lowest(np.ones(3), np.ones(3))


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
    monkeypatch.setattr(spectrum, "lowest", fallback.lowest)
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
    monkeypatch.setattr("entroflow.spectrum.lowest", lambda d, e: (np.zeros(len(d)), info, 0))
    with pytest.raises(SolverDiverged, match="dstebz"):
        smallest_eigenpair(rng.uniform(0.5, 3.0, 50), rng.uniform(-0.9, 0.9, 49))


def test_stein_failure_raises(monkeypatch, rng):
    # stein info > 0: that many eigenvectors failed to converge
    monkeypatch.setattr("entroflow.spectrum.lowest", lambda d, e: (np.ones(len(d)), 0, 1))
    with pytest.raises(SolverDiverged, match="dstein"):
        smallest_eigenpair(rng.uniform(0.5, 3.0, 50), rng.uniform(-0.9, 0.9, 49))
