"""The brute-force blossoms: defining-property (axiom) tests, hand-checked
enumerations, and the product-form equivalence for the tensor case."""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blossom_subdiv import (
    MonomialCurve,
    MonomialSurface,
    Point2,
    Point3,
    binomial,
    blossom_curve,
    blossom_tensor,
    blossom_triangle,
    monomial_blossom_curve,
    monomial_blossom_tensor,
    monomial_blossom_triangle,
    eval_monomial_curve,
    eval_monomial_surface,
)
from blossom_subdiv.sampling import random_point3, random_rational

import golden

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
points3 = st.builds(Point3, rationals, rationals, rationals)
points2 = st.builds(Point2, rationals, rationals)


def raw_tensor_enumeration(i, j, u_values, v_values):
    """Definitional double-subset enumeration, kept independent of the
    shipped product-form path on purpose."""
    n, m = len(u_values), len(v_values)
    total = Fraction(0)
    for alpha in combinations(range(n), i):
        for beta in combinations(range(m), j):
            total += prod((u_values[k] for k in alpha), start=Fraction(1)) * prod(
                (v_values[k] for k in beta), start=Fraction(1)
            )
    return total / (binomial(n, i) * binomial(m, j))


class TestMonomialBlossomCurve:
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_index_zero_is_one(self, values):
        assert monomial_blossom_curve(0, values) == 1

    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_full_index_is_product(self, values):
        assert monomial_blossom_curve(len(values), values) == prod(values)

    def test_hand_enumerated_singletons(self):
        assert monomial_blossom_curve(1, [Fraction(2), Fraction(3), Fraction(5)]) == Fraction(
            10, 3
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            monomial_blossom_curve(3, [Fraction(1), Fraction(2)])
        with pytest.raises(ValueError):
            monomial_blossom_curve(-1, [Fraction(1)])


class TestBlossomCurve:
    @given(st.lists(points3, min_size=1, max_size=5), rationals)
    def test_diagonal_reduces_to_curve(self, coeffs, t):
        curve = MonomialCurve(tuple(coeffs))
        args = [t] * curve.degree
        assert blossom_curve(curve, args) == eval_monomial_curve(curve, t)

    def test_constant_curve(self):
        curve = MonomialCurve((Point3(4, 5, 6),))
        assert blossom_curve(curve, []) == Point3(4, 5, 6)

    @given(rationals, rationals)
    def test_square_monomial(self, u1, u2):
        curve = MonomialCurve((Point3(0, 0, 0), Point3(0, 0, 0), Point3(1, 0, 0)))
        assert blossom_curve(curve, [u1, u2]).x == u1 * u2

    def test_length_mismatch_rejected(self):
        curve = MonomialCurve((Point3(0, 0, 0), Point3(1, 0, 0)))
        with pytest.raises(ValueError):
            blossom_curve(curve, [Fraction(1), Fraction(2)])


class TestMonomialBlossomTensor:
    @given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4))
    def test_zero_indices(self, u_values, v_values):
        assert monomial_blossom_tensor(0, 0, u_values, v_values) == 1

    @given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4))
    def test_full_indices(self, u_values, v_values):
        assert monomial_blossom_tensor(
            len(u_values), len(v_values), u_values, v_values
        ) == prod(u_values) * prod(v_values)

    def test_hand_enumerated(self):
        got = monomial_blossom_tensor(
            1, 1, [Fraction(2), Fraction(4)], [Fraction(3), Fraction(5)]
        )
        assert got == 12

    def test_product_form_equals_raw_enumeration(self):
        rng = random.Random(2024)
        for n in range(5):
            for m in range(5):
                u_values = [random_rational(rng) for _ in range(n)]
                v_values = [random_rational(rng) for _ in range(m)]
                for i in range(n + 1):
                    for j in range(m + 1):
                        assert monomial_blossom_tensor(
                            i, j, u_values, v_values
                        ) == raw_tensor_enumeration(i, j, u_values, v_values)


class TestBlossomTensor:
    @given(
        st.lists(st.lists(points3, min_size=2, max_size=2), min_size=3, max_size=3),
        rationals,
        rationals,
    )
    def test_diagonal_reduces_to_surface(self, grid, u, v):
        surface = MonomialSurface(tuple(tuple(row) for row in grid))
        n, m = surface.degrees
        assert blossom_tensor(surface, [u] * n, [v] * m) == eval_monomial_surface(
            surface, u, v
        )

    def test_sample_surface_corner_args(self):
        one = Fraction(1)
        zero = Fraction(0)
        got = blossom_tensor(golden.SAMPLE_SURFACE, [one, one, one], [one, one])
        assert got == golden.p3("4", "3", "3/4")
        got = blossom_tensor(golden.SAMPLE_SURFACE, [zero, zero, zero], [zero, zero])
        assert got == golden.p3("0", "0", "0")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            blossom_tensor(golden.SAMPLE_SURFACE, [Fraction(0)] * 2, [Fraction(0)] * 2)


class TestMonomialBlossomTriangle:
    @given(st.lists(points2, min_size=1, max_size=5))
    def test_zero_indices(self, points):
        assert monomial_blossom_triangle(0, 0, points) == 1

    @given(st.lists(points2, min_size=1, max_size=5))
    def test_full_u_index(self, points):
        n = len(points)
        assert monomial_blossom_triangle(n, 0, points) == prod(
            (p.s for p in points), start=Fraction(1)
        )

    def test_hand_enumerated_disjoint_pairs(self):
        points = [Point2(1, 2), Point2(3, 4)]
        # pairs: u1*v2 + u2*v1 = 1*4 + 3*2 = 10, divided by 2
        assert monomial_blossom_triangle(1, 1, points) == 5

    def test_reduces_to_univariate_blossoms_on_edges(self):
        rng = random.Random(7)
        points = [Point2(random_rational(rng), random_rational(rng)) for _ in range(5)]
        for i in range(6):
            assert monomial_blossom_triangle(i, 0, points) == monomial_blossom_curve(
                i, [p.s for p in points]
            )
        for j in range(6):
            assert monomial_blossom_triangle(0, j, points) == monomial_blossom_curve(
                j, [p.t for p in points]
            )

    def test_out_of_range_rejected(self):
        points = [Point2(0, 0), Point2(1, 1)]
        with pytest.raises(ValueError):
            monomial_blossom_triangle(2, 1, points)


class TestBlossomTriangle:
    @given(
        st.lists(st.lists(points3, min_size=2, max_size=2), min_size=2, max_size=2),
        rationals,
        rationals,
    )
    def test_diagonal_reduces_to_surface(self, grid, u, v):
        surface = MonomialSurface(tuple(tuple(row) for row in grid))
        n, m = surface.degrees
        args = [Point2(u, v)] * (n + m)
        assert blossom_triangle(surface, args) == eval_monomial_surface(surface, u, v)

    def test_sample_surface_repeated_vertices(self):
        got = blossom_triangle(golden.SAMPLE_SURFACE, [Point2(1, 0)] * 5)
        assert got == golden.p3("4", "0", "1/5")
        got = blossom_triangle(golden.SAMPLE_SURFACE, [Point2(0, 1)] * 5)
        assert got == golden.p3("0", "2", "-4/5")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            blossom_triangle(golden.SAMPLE_SURFACE, [Point2(0, 0)] * 4)


class TestBlossomAxioms:
    """Symmetry, multi-affinity, and diagonal reduction, checked exactly
    on seeded random instances of all three blossom kinds."""

    def test_symmetry_curve(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(1, 4)
            curve = MonomialCurve(tuple(random_point3(rng) for _ in range(n + 1)))
            args = [random_rational(rng) for _ in range(n)]
            shuffled = args[:]
            rng.shuffle(shuffled)
            assert blossom_curve(curve, args) == blossom_curve(curve, shuffled)

    def test_symmetry_tensor(self):
        # Symmetric within the u block and within the v block separately.
        rng = random.Random(102)
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            surface = MonomialSurface(
                tuple(tuple(random_point3(rng) for _ in range(m + 1)) for _ in range(n + 1))
            )
            u_args = [random_rational(rng) for _ in range(n)]
            v_args = [random_rational(rng) for _ in range(m)]
            u_shuffled, v_shuffled = u_args[:], v_args[:]
            rng.shuffle(u_shuffled)
            rng.shuffle(v_shuffled)
            assert blossom_tensor(surface, u_args, v_args) == blossom_tensor(
                surface, u_shuffled, v_shuffled
            )

    def test_symmetry_triangle(self):
        rng = random.Random(103)
        for _ in range(60):
            n, m = rng.randint(0, 2), rng.randint(1, 2)
            surface = MonomialSurface(
                tuple(tuple(random_point3(rng) for _ in range(m + 1)) for _ in range(n + 1))
            )
            args = [
                Point2(random_rational(rng), random_rational(rng)) for _ in range(n + m)
            ]
            shuffled = args[:]
            rng.shuffle(shuffled)
            assert blossom_triangle(surface, args) == blossom_triangle(surface, shuffled)

    def test_multi_affinity_curve(self):
        rng = random.Random(104)
        for _ in range(60):
            n = rng.randint(1, 4)
            curve = MonomialCurve(tuple(random_point3(rng) for _ in range(n + 1)))
            args = [random_rational(rng) for _ in range(n)]
            slot = rng.randrange(n)
            alpha = random_rational(rng)
            u_k, v_k = random_rational(rng), random_rational(rng)
            blended = args[:]
            blended[slot] = (1 - alpha) * u_k + alpha * v_k
            with_u, with_v = args[:], args[:]
            with_u[slot], with_v[slot] = u_k, v_k
            assert blossom_curve(curve, blended) == (1 - alpha) * blossom_curve(
                curve, with_u
            ) + alpha * blossom_curve(curve, with_v)

    def test_multi_affinity_tensor(self):
        rng = random.Random(105)
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            surface = MonomialSurface(
                tuple(tuple(random_point3(rng) for _ in range(m + 1)) for _ in range(n + 1))
            )
            u_args = [random_rational(rng) for _ in range(n)]
            v_args = [random_rational(rng) for _ in range(m)]
            alpha = random_rational(rng)
            u_k, v_k = random_rational(rng), random_rational(rng)
            if rng.random() < 0.5:
                slot = rng.randrange(n)
                blended, with_u, with_v = u_args[:], u_args[:], u_args[:]
                blended[slot] = (1 - alpha) * u_k + alpha * v_k
                with_u[slot], with_v[slot] = u_k, v_k
                got = blossom_tensor(surface, blended, v_args)
                want = (1 - alpha) * blossom_tensor(surface, with_u, v_args) + (
                    alpha
                ) * blossom_tensor(surface, with_v, v_args)
            else:
                slot = rng.randrange(m)
                blended, with_u, with_v = v_args[:], v_args[:], v_args[:]
                blended[slot] = (1 - alpha) * u_k + alpha * v_k
                with_u[slot], with_v[slot] = u_k, v_k
                got = blossom_tensor(surface, u_args, blended)
                want = (1 - alpha) * blossom_tensor(surface, u_args, with_u) + (
                    alpha
                ) * blossom_tensor(surface, u_args, with_v)
            assert got == want

    def test_multi_affinity_triangle(self):
        rng = random.Random(106)
        for _ in range(60):
            n, m = rng.randint(0, 2), rng.randint(1, 2)
            surface = MonomialSurface(
                tuple(tuple(random_point3(rng) for _ in range(m + 1)) for _ in range(n + 1))
            )
            total = n + m
            args = [
                Point2(random_rational(rng), random_rational(rng)) for _ in range(total)
            ]
            slot = rng.randrange(total)
            alpha = random_rational(rng)
            p = Point2(random_rational(rng), random_rational(rng))
            q = Point2(random_rational(rng), random_rational(rng))
            blended, with_p, with_q = args[:], args[:], args[:]
            blended[slot] = (1 - alpha) * p + alpha * q
            with_p[slot], with_q[slot] = p, q
            assert blossom_triangle(surface, blended) == (1 - alpha) * blossom_triangle(
                surface, with_p
            ) + alpha * blossom_triangle(surface, with_q)

    def test_diagonal_reduction_all_kinds(self):
        rng = random.Random(107)
        for _ in range(60):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            t, u, v = (random_rational(rng) for _ in range(3))
            curve = MonomialCurve(tuple(random_point3(rng) for _ in range(n + 1)))
            assert blossom_curve(curve, [t] * n) == eval_monomial_curve(curve, t)
            surface = MonomialSurface(
                tuple(tuple(random_point3(rng) for _ in range(m + 1)) for _ in range(n + 1))
            )
            assert blossom_tensor(surface, [u] * n, [v] * m) == eval_monomial_surface(
                surface, u, v
            )
            assert blossom_triangle(
                surface, [Point2(u, v)] * (n + m)
            ) == eval_monomial_surface(surface, u, v)
