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
from entroflow.spectrum import smallest_eigenpair


def _python(code: str, threads: str | None = None) -> str:
    """stdout of a fresh interpreter running ``code``, with
    OPENBLAS_NUM_THREADS set to ``threads`` (removed when None)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
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


# the environment value, the process's thread count (Linux only) and the
# count OpenBLAS reports (numpy's bundled library only)
_THREADS = (
    "import ctypes, os, sys\n"
    "from entroflow import _lapack\n"
    "status = open('/proc/self/status').read() if sys.platform == 'linux' else ''\n"
    "threads = [line.split()[1] for line in status.splitlines() if line.startswith('Threads:')]\n"
    "lib = _lapack._LAPACK\n"
    "blas = (ctypes.CDLL(lib.path).scipy_openblas_get_num_threads64_()\n"
    "        if isinstance(lib, _lapack.Lapack) else None)\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), *threads, blas)\n"
)


def test_import_runs_one_blas_thread():
    env, *threads, blas = _python("import entroflow\n" + _THREADS).split()
    assert env == "1"
    if blas != "None":
        assert blas == "1"
    if sys.platform != "linux":
        pytest.skip("/proc/self/status is Linux only")
    assert threads == ["1"]


def test_import_keeps_a_thread_count_already_set():
    env, *_ = _python("import entroflow\n" + _THREADS, threads="2").split()
    assert env == "2"


def test_import_after_numpy_leaves_the_environment_alone():
    out = _python(
        "import os\n"
        "before = dict(os.environ)\n"
        "import numpy, entroflow\n"
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
    )
    assert out == "True False"


def test_eigenvalue_does_not_depend_on_the_thread_count():
    # at n = 100000 a threaded BLAS dot product splits its sum by thread
    code = (
        "from entroflow import harmonic, lambda1_pme, make_interval_grid\n"
        "res = lambda1_pme(0.5, make_interval_grid(-8.0, 8.0, 100000, harmonic()))\n"
        "print(repr(res.lam), repr(res.residual))\n"
    )
    assert _python(code, threads="1") == _python(code, threads="2")


def test_linear_trace_does_not_depend_on_the_thread_count():
    # the expansion's sums are correctly rounded and its k x k products
    # elementwise; only the eigendecomposition of the Lanczos matrix is LAPACK's
    code = (
        "import hashlib\n"
        "from entroflow import FlowConfig, harmonic_log, make_radial_grid, run_linear\n"
        "grid = make_radial_grid(3, 12.0, 1000, harmonic_log(0.05))\n"
        "cfg = FlowConfig(kind='linear', p=1.5, init='bump:0.3', t_end=0.5, dt=1e-3)\n"
        "print(hashlib.sha256(run_linear(cfg, grid)._csv_text().encode()).hexdigest())\n"
    )
    assert _python(code, threads="1") == _python(code, threads="2")


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
def test_eigensolve_matches_eigh_tridiagonal(monkeypatch, lapack, n, split):
    # indefinite bands; "split" zeroes a tenth of the off-diagonal, so the
    # matrix falls apart into blocks, each with its own lowest eigenvalue
    from entroflow import spectrum

    rng = np.random.default_rng(n)
    d, e = rng.uniform(-3.0, 3.0, n), rng.uniform(-1.0, 1.0, n - 1)
    if split and n > 1:
        e[rng.choice(n - 1, size=max(1, (n - 1) // 10), replace=False)] = 0.0
    want = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0),
                            tol=2.0 * np.finfo(float).tiny, lapack_driver="stebz")[0]
    monkeypatch.setattr(spectrum, "SPDTridiagonal", lambda n: _lapack.SPDTridiagonal(n, lapack))
    lam, vec, res, _, tol_eff, lower = smallest_eigenpair(d, e)
    assert lam == pytest.approx(want, abs=1e-11)
    assert lower <= want and res <= tol_eff
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


def test_only_the_two_routines_are_bound():
    assert _lapack._NAMES == ("dpttrf", "dpttrs")
    for lib in LIBRARIES:
        assert not hasattr(lib, "lowest")
    assert not hasattr(_lapack, "lowest")


def test_fallback_runs_the_flows_and_the_eigensolve(monkeypatch, rng, gauss_grid_small,
                                                     states):
    from entroflow import flows, spectrum

    fallback = _lapack.Flapack(LINALG_DIR)
    diag, off = rng.uniform(-3.0, 3.0, 200), rng.uniform(-0.9, 0.9, 199)
    runs = [(flows.run_linear, flows.FlowConfig(kind="linear", p=1.5, init="odd:0.2",
                                                t_end=0.05, dt=1e-3)),
            (flows.run_pme, flows.FlowConfig(kind="pme", p=1.5, m=1.2, t_end=0.05, dt=1e-3))]

    def solve_all():
        return smallest_eigenpair(diag, off), [run(cfg, gauss_grid_small)
                                               for run, cfg in runs]

    (lam, vec, *_), traces = solve_all()
    kept = states[:]
    states.clear()
    monkeypatch.setattr(spectrum, "SPDTridiagonal", lambda n: _lapack.SPDTridiagonal(n, fallback))
    monkeypatch.setattr(flows, "SPDTridiagonal", lambda n: _lapack.SPDTridiagonal(n, fallback))
    (lam_fb, vec_fb, *_), traces_fb = solve_all()
    assert lam_fb == lam and np.array_equal(vec_fb, vec)
    for got, want in zip(traces_fb, traces):
        assert np.array_equal(got.E, want.E)
    # the state at every row of both flows, the last ones included
    assert len(states) == len(kept) == sum(len(trace.t) for trace in traces)
    assert all(np.array_equal(got, want) for got, want in zip(states, kept))


def test_one_by_one_matrix(monkeypatch, lapack):
    # the f2py wrappers of the fallback take no empty off-diagonal
    from entroflow import spectrum

    monkeypatch.setattr(spectrum, "SPDTridiagonal", lambda n: _lapack.SPDTridiagonal(n, lapack))
    lam, vec, res, iterations, _, lower = smallest_eigenpair(np.array([2.5]), np.array([]))
    assert (lam, vec.tolist(), res, iterations) == (2.5, [1.0], 0.0, 1)
    assert lower < 2.5
