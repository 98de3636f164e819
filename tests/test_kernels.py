import subprocess
import sys

import numpy as np

from misdpkit import _kernels


def _batch(rng, n, count):
    out = []
    for _ in range(count):
        a = rng.integers(-5, 6, (n, n)).astype(float)
        out.append(np.tril(a) + np.tril(a, -1).T)
    return out


def test_both_paths_agree():
    rng = np.random.default_rng(2024)
    for a in _batch(rng, 7, 40):
        w_np, v_np, s_np = _kernels.jacobi_eigh(a, 1e-12, 100)
        assert s_np >= 0
        if _kernels.HAVE_NUMBA:
            saved = _kernels.jacobi_cycle
            _kernels.jacobi_cycle = _kernels.jacobi_cycle_numba
            try:
                w_nb, v_nb, s_nb = _kernels.jacobi_eigh(a, 1e-12, 100)
            finally:
                _kernels.jacobi_cycle = saved
            assert np.allclose(w_np, w_nb, atol=1e-12)


def test_env_flag_selects_fallback():
    code = (
        "import os; os.environ['MISDPKIT_PURE_NUMPY'] = '1';"
        "from misdpkit import _kernels;"
        "assert not _kernels.USING_NUMBA;"
        "assert _kernels.jacobi_cycle is _kernels.jacobi_cycle_numpy;"
        "from misdpkit.linalg import SymMat, eigen_values;"
        "w = eigen_values(SymMat([[2, 1], [1, 2]]));"
        "assert abs(w[0] - 3) < 1e-12 and abs(w[1] - 1) < 1e-12;"
        "print('fallback-ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout


def test_nonconvergence_raises():
    import pytest

    from misdpkit import config
    from misdpkit.errors import NonConvergence
    from misdpkit.linalg import SymMat, eigensym

    strict = config.Tolerances(jacobi_sweeps=0)
    with pytest.raises(NonConvergence):
        eigensym(SymMat([[2, 1], [1, 2]]), tols=strict)


def test_overflowing_norm_is_silent():
    import warnings

    import pytest

    from misdpkit.errors import NonConvergence
    from misdpkit.linalg import is_psd

    a = np.array([[1.0, 1e200], [1e200, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kernels.jacobi_eigh(a, 1e-12, 100)[2] == -1
        with pytest.raises(NonConvergence):
            is_psd(a)
