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
        w, v, sweeps = _kernels.jacobi_eigh(a, _kernels.JACOBI_OFF, _kernels.JACOBI_SWEEPS)
        assert sweeps >= 0
        assert np.allclose(a @ v, v * w, atol=1e-9)


def test_nonconvergence_raises():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert _kernels.jacobi_eigh(a, _kernels.JACOBI_OFF, 0)[2] == -1
    assert _kernels.jacobi_eigh(a, _kernels.JACOBI_OFF, 1)[2] == 1


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
