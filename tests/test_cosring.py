import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdpkit import cosring
from misdpkit.cosring import CosInt, alpha, cosint, degree, minimal_polynomial
from misdpkit.linalg import is_psd, is_psd_exact
from misdpkit.problems import build_tsp_cvetkovic, build_tsp_lee


class TestMinimalPolynomial:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_monic_integer_of_degree_half_phi_with_alpha_a_root(self, n):
        psi = minimal_polynomial(n)
        phi = sum(math.gcd(k, n) == 1 for k in range(1, n + 1))
        assert all(type(c) is int for c in psi) and psi[-1] == 1
        assert len(psi) - 1 == degree(n) == phi // 2
        x = 2 * math.cos(2 * math.pi / n)
        assert abs(sum(c * x**i for i, c in enumerate(psi))) <= 1e-9

    def test_known_polynomials(self):
        assert minimal_polynomial(5) == (-1, 1, 1)  # x^2 + x - 1
        assert minimal_polynomial(7) == (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1
        assert minimal_polynomial(9) == (1, -3, 0, 1)  # x^3 - 3x + 1

    @pytest.mark.parametrize("n", [0, 1, 2, True, 5.0])
    def test_refuses_n_below_three(self, n):
        with pytest.raises(ValueError, match="needs an integer n >= 3"):
            minimal_polynomial(n)


class TestElements:
    def test_niven_rings_are_the_integers(self):
        assert [alpha(n) for n in (3, 4, 6)] == [-1, 0, 1]
        assert all(type(alpha(n)) is int for n in (3, 4, 6))

    def test_an_element_without_an_alpha_part_is_its_int(self):
        a = alpha(5)
        assert type(a) is CosInt and a * a + a == 1  # alpha is a unit
        assert type(a - a) is int and a - a == 0 and not (a - a)
        assert cosint(7, (4, 0, 0)) == 4 and type(cosint(7, (4, 0, 0))) is int
        with pytest.raises(ValueError, match="is 2 ints"):
            cosint(5, (1, 2, 3))
        with pytest.raises(ValueError, match="is 2 ints"):
            cosint(5, (1, True))

    def test_exact_division_and_its_refusal(self):
        a = alpha(7)
        b = 3 - 2 * a
        assert (b * (a + 5)) // (a + 5) == b and (b * 6) // 6 == b
        assert 1 // a * a == 1 and 2 // a == 2 * (1 // a)
        with pytest.raises(ArithmeticError):
            b // 2
        with pytest.raises(ArithmeticError):
            b // (2 * a)  # alpha is a unit, 2 is not

    def test_rings_do_not_mix_with_each_other_or_with_fractions_and_floats(self):
        with pytest.raises(ValueError, match="do not mix"):
            alpha(5) + alpha(7)
        with pytest.raises(TypeError):
            alpha(5) + 0.5
        with pytest.raises(TypeError):
            alpha(5) < 0.5

    def test_hash_equality_pickle_and_copies(self):
        a = 2 - alpha(5)
        assert a == cosint(5, (2, -1)) and hash(a) == hash(cosint(5, (2, -1)))
        assert a != cosint(10, (2, -1)) and a != 2
        for again in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert again == a and again * a == a * a

    def test_float(self):
        assert float(2 - alpha(5)) == 2.0 * (1.0 - math.cos(2.0 * math.pi / 5))
        for n in (5, 7, 9, 11, 13):
            assert math.isclose(float(alpha(n)), 2 * math.cos(2 * math.pi / n), rel_tol=1e-15)


_RINGS = [n for n in range(5, 31) if degree(n) > 1]


@st.composite
def _elements(draw, n, size=60):
    return cosint(n, draw(st.lists(st.integers(-size, size), min_size=degree(n), max_size=degree(n))))


@st.composite
def _triples(draw):
    n = draw(st.sampled_from(_RINGS))
    return n, draw(_elements(n)), draw(_elements(n)), draw(_elements(n))


def _float_sign(x):
    return (x > 0) - (x < 0)


class TestRingProperties:
    @settings(max_examples=300, deadline=None)
    @given(_triples())
    def test_exact_quotient_of_a_product(self, abc):
        _, a, b, _ = abc
        if b:
            assert (a * b) // b == a
        if a:
            assert (a * b) // a == b

    @settings(max_examples=300, deadline=None)
    @given(_triples())
    def test_ring_laws(self, abc):
        _, a, b, c = abc
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a - b == -(b - a) and (a - b) + b == a

    @settings(max_examples=300, deadline=None)
    @given(_triples())
    def test_sign_is_the_float_sign_where_the_float_is_clear(self, abc):
        _, a, b, _ = abc
        for x in (a, b, a * b, a - b):
            if type(x) is CosInt:
                f = float(x)
                exact = x.ring.bisected_sign(x.coeffs)
                assert x.sign() == exact
                if abs(f) > 1e-9 * sum(abs(c) * 2**i for i, c in enumerate(x.coeffs)):
                    assert exact == _float_sign(f)
        if type(a - b) is CosInt and abs(float(a) - float(b)) > 1e-6:
            assert (a < b) == (float(a) < float(b)) and (a >= b) == (float(a) >= float(b))

    def test_fibonacci_signs_need_the_bisection(self, monkeypatch):
        # at n = 5 alpha = (sqrt 5 - 1)/2, and F_k - F_(k+1) alpha = (-1)^(k+1) phi^-(k+1):
        # it alternates in sign and falls far below float resolution
        bisected = []
        exact = cosring._Ring.bisected_sign

        def counting(ring, coeffs):
            bisected.append(coeffs)
            return exact(ring, coeffs)

        monkeypatch.setattr(cosring._Ring, "bisected_sign", counting)
        fib = [0, 1]
        while len(fib) < 203:
            fib.append(fib[-1] + fib[-2])
        a = alpha(5)
        for k in range(1, 201):
            x = fib[k] - fib[k + 1] * a
            assert x.sign() == (-1) ** (k + 1)
            assert (x < 0) == (k % 2 == 0)
        assert len(bisected) > 150


def _tours(n):
    """Every Hamiltonian cycle of K_n, once: vertex 0 first, then one direction."""
    for rest in itertools.permutations(range(1, n)):
        if rest[0] < rest[-1]:
            yield (0, *rest)


def _distance_classes(tour, r):
    """{"X{t}[i,j]": 1 if i, j are t apart along the tour} for t = 1..r."""
    n = len(tour)
    pos = {v: k for k, v in enumerate(tour)}
    values = {}
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(pos[i] - pos[j])
            gap = min(gap, n - gap)
            for t in range(1, r + 1):
                values[f"X{t}[{i},{j}]"] = int(gap == t)
    return values


class TestTourPencils:
    def test_cvetkovic_n5_exact_route_matches_jacobi_everywhere(self):
        d = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
        (pencil,) = build_tsp_cvetkovic(d).pencils
        assert pencil.exact and not pencil.integral
        names = [name for name, _ in pencil.terms]
        psd = 0
        for bits in itertools.product((0, 1), repeat=len(names)):
            values = dict(zip(names, bits))
            exact = pencil.is_psd_at(values)
            assert exact == is_psd(pencil.evaluate(values))
            psd += exact
        assert psd == 429

    @pytest.mark.parametrize("n", [5, 7])
    def test_every_lee_pencil_is_psd_at_every_tour(self, n):
        d = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        pencils = build_tsp_lee(d).pencils
        assert all(p.exact and not p.integral for p in pencils)
        tours = list(_tours(n))
        assert len(tours) == math.factorial(n - 1) // 2
        for tour in tours:
            values = _distance_classes(tour, n // 2)
            assert all(p.is_psd_at(values) for p in pencils)
        # X1 = J - I is no tour: 2I + alpha_l (J - I) has the eigenvalue
        # 2 + (n - 1) alpha_l < 0 on the ones vector when l is nearest n/2
        complete = {name: int(name.startswith("X1[")) for name, _ in pencils[0].terms}
        assert not pencils[-1].is_psd_at(complete)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-1, 1), min_size=63, max_size=63))
    def test_lee_n7_exact_route_matches_jacobi_where_the_spectrum_is_clear(self, vals):
        pencils = build_tsp_lee(np.ones((7, 7), dtype=int) - np.eye(7, dtype=int)).pencils
        names = [name for name, _ in pencils[0].terms]
        values = dict(zip(names, vals))
        for p in pencils:
            w = np.linalg.eigvalsh(p.evaluate(values))
            if abs(w[0]) > 1e-6:
                assert p.is_psd_at(values) == (w[0] > 0)

    def test_is_psd_exact_over_the_ring(self):
        # [[1, alpha], [alpha, alpha^2]] is singular and PSD; lowering its last
        # entry by alpha^50, about 4e-11 and inside the float test's tolerance,
        # makes it not PSD, which only the exact route sees
        a = alpha(5)
        tiny = math.prod([a] * 50)
        assert 0 < tiny and float(tiny) < 1e-10
        assert is_psd_exact([[1, a], [a, a * a]])
        assert is_psd_exact([[1, a], [a, a * a + tiny]])
        assert not is_psd_exact([[1, a], [a, a * a - tiny]])
        assert is_psd(np.array([[1, float(a)], [float(a), float(a * a - tiny)]]))
