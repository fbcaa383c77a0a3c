"""Exact operator algebra and the first-principles bracket oracle."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from qmoments import indices
from qmoments.exact import GR_ONE, GaussianRational, MomentPolynomial, _accumulate, leibniz
from qmoments.indices import single
from qmoments.moment_algebra import _var_bracket, build_bracket_table
from qmoments.weyl_algebra import (
    OperatorPoly,
    bracket_oracle,
    expectation,
    weyl_monomial,
    weyl_symmetrize,
)


def GR(re, im=0):
    return GaussianRational(re, im)


def canonical(part) -> bool:
    """A coefficient part in canonical form: an int, or a Fraction whose
    denominator is not 1."""
    return type(part) is int or (type(part) is Fraction and part.denominator != 1)


def test_multiply_already_ordered():
    q = OperatorPoly.position()
    p = OperatorPoly.momentum()
    assert (q * p).terms == {(0, ((1, 1),)): GR(1)}


def test_multiply_single_commutator():
    q = OperatorPoly.position()
    p = OperatorPoly.momentum()
    # (p-hat - p)(q-hat - q) = (q-hat - q)(p-hat - p) - i hbar
    assert (p * q).terms == {
        (0, ((1, 1),)): GR(1),
        (1, ((0, 0),)): GR(0, -1),
    }


def test_commutator_q2_p2():
    """[Q^2, P^2] = 2 i hbar (QP + PQ) = 4 i hbar QP + 2 hbar^2."""
    q = OperatorPoly.position()
    p = OperatorPoly.momentum()
    comm = (q * q).commutator(p * p)
    assert comm.terms == {
        (1, ((1, 1),)): GR(0, 4),
        (2, ((0, 0),)): GR(2),
    }
    # and the bracket of raw expectations follows Eq.-style normalization
    qp_sym = expectation(comm.divide_ihbar())
    assert qp_sym == MomentPolynomial.moment(single(1, 1), 4)


def test_multiply_associative_randomized():
    rng = random.Random(7)

    def random_op():
        op = OperatorPoly.zero(1)
        for _ in range(3):
            exps = ((rng.randint(0, 2), rng.randint(0, 2)),)
            coeff = GR(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
            op = op + OperatorPoly.monomial(exps, coeff)
        return op

    for _ in range(25):
        a, b, c = random_op(), random_op(), random_op()
        assert (a * b) * c == a * (b * c)


def test_gaussian_rational_arithmetic_matches_the_pair_formulas():
    """Every zero/nonzero pattern of the operands' real and imaginary parts,
    with mixed signs and integral or fractional values, gives exactly the
    (re, im) reference formulas, with every part in canonical form: an int,
    or a Fraction whose denominator is not 1."""
    rng = random.Random(11)

    def part(nonzero):
        if not nonzero:
            return rng.choice((0, Fraction(0)))
        n = rng.choice((-1, 1)) * rng.randint(1, 9)
        # Fraction(n, d) is integral for some draws, e.g. 4/2
        return rng.choice((n, Fraction(n, rng.randint(2, 9))))

    integral = set()
    for pattern in itertools.product((False, True), repeat=4):
        for _ in range(10):
            a, b, c, d = (part(nonzero) for nonzero in pattern)
            x, y = GR(a, b), GR(c, d)
            if a and c:
                integral.add((type(x.re) is int, type(y.re) is int))
            for got, want in [
                (x * y, (a * c - b * d, a * d + b * c)),
                (x + y, (a + c, b + d)),
                (x - y, (a - c, b - d)),
                (-x, (-a, -b)),
                (x * 3, (3 * a, 3 * b)),
                (x.mul_ipow(1), (-b, a)),
                (x.mul_ipow(2), (-a, -b)),
                (x.mul_ipow(3), (b, -a)),
            ]:
                assert (got.re, got.im) == want, (pattern, a, b, c, d)
                assert canonical(got.re) and canonical(got.im)
    # int x int, int x Fraction and Fraction x Fraction products all occur
    assert integral == {(True, True), (True, False), (False, True), (False, False)}


def test_gaussian_rational_hashes_like_an_equal_number():
    assert GR(2) == 2 and hash(GR(2)) == hash(2)
    assert 2 in {GR(2)} and GR(2) in {2}
    assert hash(GR(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert {GR(Fraction(1, 2)): "half"}[Fraction(1, 2)] == "half"
    assert hash(GR(1, 2)) == hash(GR(Fraction(2, 2), 2))
    two = GR(Fraction(4, 2))
    assert type(two.re) is int and two.re == 2 and hash(two) == hash(2)


# one-pair and two-pair polynomials of each SparsePolynomial subclass
_BOTH_TYPES = [
    (OperatorPoly.position(), OperatorPoly.position(0, 2)),
    (MomentPolynomial.q(), MomentPolynomial.q(0, 2)),
]


@pytest.mark.parametrize("one, two", _BOTH_TYPES, ids=["operator", "moment"])
def test_sum_and_difference_refuse_different_pair_counts(one, two):
    for a, b in ((one, two), (two, one)):
        with pytest.raises(ValueError, match="pair counts"):
            a + b
        with pytest.raises(ValueError, match="pair counts"):
            a - b


@pytest.mark.parametrize("one, two", _BOTH_TYPES, ids=["operator", "moment"])
def test_zero_and_scale_by_zero_keep_the_type(one, two):
    cls = type(one)
    for got in (cls.zero(2), one.scale(0), two.scale(0), one - one, -one, one + one):
        assert type(got) is cls and not hasattr(got, "__dict__")
    assert cls.zero(2).npairs == 2 and two.scale(0).npairs == 2 and one.scale(0).is_zero


def test_operator_and_moment_polynomials_never_compare_equal():
    op = OperatorPoly.monomial(((2, 0),), 3)
    poly = MomentPolynomial(1, dict(op.terms))
    assert op.terms == poly.terms
    assert op != poly and poly != op
    assert OperatorPoly.zero() != MomentPolynomial.zero()


def test_moment_carries_its_hbar_power():
    assert MomentPolynomial.moment(single(2, 1), 3, 2).terms == {(2, ((("D", single(2, 1)), 1),)): GR(3)}
    assert MomentPolynomial.moment(((0, 0),), Fraction(1, 2), 1) == MomentPolynomial.constant(Fraction(1, 2), 1, 1)
    assert MomentPolynomial.moment(single(0, 1), 5, 3).is_zero


def test_bracket_table_coefficients_are_canonical():
    """Every coefficient part of a two-pair table is an int or a proper
    Fraction, and the bracket is antisymmetric on every single-pair index
    pair of order <= 4: the oracle's on moments, and the reference's where
    one index is q or p, which runs its cached reversed pair brackets."""
    for poly in build_bracket_table(3, 2).entries.values():
        for c in poly.terms.values():
            assert canonical(c.re) and canonical(c.im), poly
    idxs = indices.iter_indices(4, 1, min_order=1)
    for m1, m2 in itertools.combinations(idxs, 2):
        if 1 in (indices.order(m1), indices.order(m2)):
            assert _full_expansion_bracket(m2, m1) == -_full_expansion_bracket(m1, m2), (m1, m2)
        else:
            assert bracket_oracle(m2, m1) == -bracket_oracle(m1, m2), (m1, m2)


def test_weyl_symmetrize_covariance():
    # average of QP and PQ, normal ordered via the multiply oracle
    q = OperatorPoly.position()
    p = OperatorPoly.momentum()
    expected = (q * p + p * q).scale(Fraction(1, 2))
    assert weyl_symmetrize(1, 1) == expected
    assert weyl_symmetrize(1, 1).terms == {
        (0, ((1, 1),)): GR(1),
        (1, ((0, 0),)): GR(0, Fraction(-1, 2)),
    }


def test_weyl_symmetrize_commuting_factors():
    assert weyl_symmetrize(2, 0).terms == {(0, ((2, 0),)): GR(1)}
    assert weyl_symmetrize(0, 3).terms == {(0, ((0, 3),)): GR(1)}


def test_weyl_symmetrize_q2p_three_term_average():
    """The explicit three-term average of (Q^2 P) orderings."""
    q = OperatorPoly.position()
    p = OperatorPoly.momentum()
    threeterm = (q * q * p + q * p * q + p * q * q).scale(Fraction(1, 3))
    assert weyl_symmetrize(2, 1) == threeterm
    # normal form: Q^2 P - i hbar Q
    assert threeterm.terms == {
        (0, ((2, 1),)): GR(1),
        (1, ((1, 0),)): GR(0, -1),
    }


def test_weyl_symmetrize_is_the_mean_of_every_ordering():
    """Reference: every ordering of the factors, multiplied out one by one."""
    q = OperatorPoly.position()
    p = OperatorPoly.momentum()
    for a in range(7):
        for b in range(7 - a):
            words = set(itertools.permutations("q" * a + "p" * b))
            acc = OperatorPoly.zero(1)
            for word in words:
                prod = OperatorPoly.identity(1)
                for letter in word:
                    prod = prod * (q if letter == "q" else p)
                acc = acc + prod
            assert weyl_symmetrize(a, b) == acc.scale(Fraction(1, len(words))), (a, b)


def test_weyl_leading_coefficient_is_one():
    for a in range(5):
        for b in range(5):
            assert weyl_symmetrize(a, b).terms[(0, ((a, b),))] == GR(1)


def test_expectation_single_variable():
    assert expectation(OperatorPoly.monomial(((2, 0),))) == MomentPolynomial.moment(single(2, 0))


def test_expectation_normal_qp():
    got = expectation(OperatorPoly.monomial(((1, 1),)))
    expected = MomentPolynomial.moment(single(1, 1)) + MomentPolynomial.constant(
        GR(0, Fraction(1, 2)), 1, hbar_power=1
    )
    assert got == expected


def test_expectation_weyl_round_trip():
    for a, b in [(2, 2), (3, 1), (1, 3), (4, 0)]:
        assert expectation(weyl_symmetrize(a, b)) == MomentPolynomial.moment(single(a, b))


def test_expectation_n22_frozen():
    # <N(2,2)> = Delta(q^2 p^2) + 2 i hbar Delta(qp) - hbar^2/2
    got = expectation(OperatorPoly.monomial(((2, 2),)))
    expected = MomentPolynomial(
        1,
        {
            (0, ((("D", single(2, 2)), 1),)): GR(1),
            (1, ((("D", single(1, 1)), 1),)): GR(0, 2),
            (2, ()): GR(Fraction(-1, 2)),
        },
    )
    assert got == expected


def test_expectation_hermiticity_up_to_order_8():
    for a in range(9):
        for b in range(9 - a):
            assert expectation(weyl_symmetrize(a, b)).is_real


def test_expectation_rejects_non_hermitian_when_asked():
    from qmoments.weyl_algebra import NonHermitianError

    with pytest.raises(NonHermitianError):
        expectation(OperatorPoly.monomial(((1, 1),)), require_real=True)


def test_bracket_oracle_second_order_block():
    assert bracket_oracle(single(2, 0), single(0, 2)) == MomentPolynomial.moment(single(1, 1), 4)
    assert bracket_oracle(single(2, 0), single(1, 1)) == MomentPolynomial.moment(single(2, 0), 2)
    assert bracket_oracle(single(1, 1), single(0, 2)) == MomentPolynomial.moment(single(0, 2), 2)


def test_bracket_oracle_self_bracket_vanishes():
    assert bracket_oracle(single(1, 1), single(1, 1)).is_zero


def test_bracket_oracle_basic_orthogonality():
    """q and p Poisson-commute with every central moment, and
    {q, p} = -{p, q} = 1, from the definition of the bracket."""
    for basic in (single(1, 0), single(0, 1)):
        for idx in indices.iter_indices(4, 1):
            assert _full_expansion_bracket(basic, idx).is_zero
            assert _full_expansion_bracket(idx, basic).is_zero
    assert _full_expansion_bracket(single(1, 0), single(0, 1)) == MomentPolynomial.constant(1, 1)
    assert _full_expansion_bracket(single(0, 1), single(1, 0)) == MomentPolynomial.constant(-1, 1)


def test_bracket_oracle_refuses_order_1_and_mixed_pair_counts():
    """The oracle takes moments of order >= 2 on one pair count; the
    equations of motion bracket q and p by moment_algebra._var_bracket."""
    for m1, m2 in [
        (single(1, 0), single(0, 2)),
        (single(2, 0), single(0, 1)),
        (single(1, 0), single(0, 1)),
        (((1, 0), (0, 0)), ((0, 0), (0, 2))),
        (single(0, 0), single(2, 0)),
        (single(2, 0), ((0, 2), (0, 0))),
    ]:
        with pytest.raises(ValueError):
            bracket_oracle(m1, m2)


def test_bracket_oracle_antisymmetry_order_6():
    for m1, m2 in itertools.combinations(indices.iter_indices(6, 1), 2):
        assert bracket_oracle(m1, m2) == -bracket_oracle(m2, m1)


def test_bracket_oracle_frozen_higher_order_values():
    # {Delta(q^2 p), Delta(p^2)} = 4 Delta(q p^2)
    assert bracket_oracle(single(2, 1), single(0, 2)) == MomentPolynomial.moment(single(1, 2), 4)
    # {Delta(q^3), Delta(p^2)} = 6 Delta(q^2 p)
    assert bracket_oracle(single(3, 0), single(0, 2)) == MomentPolynomial.moment(single(2, 1), 6)
    # {Delta(q^3), Delta(p^3)} closes on products and an hbar^2 constant
    got = bracket_oracle(single(3, 0), single(0, 3))
    expected = (
        MomentPolynomial.moment(single(2, 0), -9) * MomentPolynomial.moment(single(0, 2))
        + MomentPolynomial.moment(single(2, 2), 9)
        + MomentPolynomial.constant(Fraction(-3, 2), 1, hbar_power=2)
    )
    assert got == expected


def test_bracket_oracle_two_pair_cases():
    x1sq = ((2, 0), (0, 0))
    p2sq = ((0, 0), (0, 2))
    x1p2 = ((1, 0), (0, 1))
    x2p2 = ((0, 0), (1, 1))
    x1x2 = ((1, 0), (1, 0))
    p1p2 = ((0, 1), (0, 1))
    assert bracket_oracle(x1sq, p2sq).is_zero
    assert bracket_oracle(x1p2, x2p2) == MomentPolynomial.moment(x1p2, -1)
    got = bracket_oracle(x1x2, p1p2)
    expected = MomentPolynomial.moment(((1, 1), (0, 0))) + MomentPolynomial.moment(((0, 0), (1, 1)))
    assert got == expected


def test_weyl_monomial_multi_pair_round_trip():
    idx = ((1, 1), (2, 0))
    assert expectation(weyl_monomial(idx)) == MomentPolynomial.moment(idx)


# Reference: the bracket from its definition.  The coordinates of the state
# space are the raw expectation values E[alpha] = <prod_i q_i^a_i p_i^b_i> of
# normal-ordered, uncentered monomials (alpha is an exps tuple); the order-1
# ones are q and p themselves.  A central moment is a polynomial in them,
# {E[x], E[y]} = <[T_x, T_y]>/(i hbar), and the Leibniz rule extends that to
# the polynomials.  The result is rewritten in q, p and central moments, and
# the q, p terms must cancel.


def _is_trivial(alpha) -> bool:
    return all(a == 0 and b == 0 for a, b in alpha)


def _basic_alpha(pair, npairs, kind):
    return tuple(((1, 0) if kind == "q" else (0, 1)) if i == pair else (0, 0) for i in range(npairs))


@functools.lru_cache(maxsize=None)
def _uncentered_expectation_epoly(idx):
    """<W(idx)> expanded in raw expectation values and powers of q, p.

    The centered factors are expanded binomially; the scalars q, p are the
    raw first-order expectation values themselves, so the result is a pure
    polynomial in the E-coordinates.
    """
    npairs = len(idx)
    terms = {}
    for (h, exps), c in weyl_monomial(idx).terms.items():
        per_pair = []
        for pair, (al, be) in enumerate(exps):
            opts = []
            for j in range(al + 1):
                for k in range(be + 1):
                    coeff = GaussianRational(math.comb(al, j) * math.comb(be, k) * (-1) ** (al - j + be - k))
                    opts.append((pair, j, k, al - j, be - k, coeff))
            per_pair.append(opts)
        for combo in itertools.product(*per_pair):
            coeff = c
            raw = [None] * npairs
            scal = []
            for pair, j, k, qpow, ppow, c_i in combo:
                coeff = coeff * c_i
                raw[pair] = (j, k)
                if qpow:
                    scal.append((_basic_alpha(pair, npairs, "q"), qpow))
                if ppow:
                    scal.append((_basic_alpha(pair, npairs, "p"), ppow))
            raw_alpha = tuple(raw)
            vars_ = {}
            for v, power in scal:
                vars_[v] = vars_.get(v, 0) + power
            if not _is_trivial(raw_alpha):
                vars_[raw_alpha] = vars_.get(raw_alpha, 0) + 1
            _accumulate(terms, (h, tuple(sorted(vars_.items()))), coeff)
    return MomentPolynomial(npairs, terms)


@functools.lru_cache(maxsize=None)
def _epoly_pair_bracket(x, y):
    """{E[x], E[y]} = <[T_x, T_y]>/(i*hbar), linear in the E-coordinates.

    Only ``x <= y`` takes a commutator; a reversed pair is the negated
    bracket, made once and then cached too."""
    if x > y:
        return -_epoly_pair_bracket(y, x)
    comm = OperatorPoly.monomial(x).commutator(OperatorPoly.monomial(y))
    return MomentPolynomial(
        len(x),
        {
            (h, () if _is_trivial(exps) else ((exps, 1),)): c
            for (h, exps), c in comm.divide_ihbar().terms.items()
        },
    )


def _index_as_epoly(idx) -> MomentPolynomial:
    n = indices.order(idx)
    if n == 0:
        return MomentPolynomial.constant(GR_ONE, len(idx))
    if n == 1:
        return MomentPolynomial.term(len(idx), 0, ((idx, 1),))
    return _uncentered_expectation_epoly(idx)


@functools.lru_cache(maxsize=None)
def _evar_as_moments(alpha) -> MomentPolynomial:
    """Raw expectation E[alpha] rewritten in q, p and central moments.

    Each factor q-hat^j p-hat^k is expanded binomially around (q, p); the
    centered part goes through ``expectation``.
    """
    npairs = len(alpha)
    result = MomentPolynomial.zero(npairs)
    per_pair = [
        [(pair, al, be, j - al, k - be) for al in range(j + 1) for be in range(k + 1)]
        for pair, (j, k) in enumerate(alpha)
    ]
    for combo in itertools.product(*per_pair):
        coeff = 1
        basic = {}
        for pair, al, be, qpow, ppow in combo:
            coeff *= math.comb(al + qpow, al) * math.comb(be + ppow, be)
            if qpow:
                basic[("q", pair)] = qpow
            if ppow:
                basic[("p", pair)] = ppow
        centered = tuple((al, be) for _, al, be, _, _ in combo)
        qp = MomentPolynomial(npairs, {(0, tuple(sorted(basic.items()))): GR(1)})
        result = result + expectation(OperatorPoly.monomial(centered, coeff)) * qp
    return result


def _epoly_to_moments(e: MomentPolynomial, npairs: int) -> MomentPolynomial:
    result = MomentPolynomial.zero(npairs)
    for (h, vars_), c in e.terms.items():
        term = MomentPolynomial.constant(c, npairs, hbar_power=h)
        for alpha, power in vars_:
            term = term * _evar_as_moments(alpha) ** power
        result = result + term
    return result


def _full_expansion_bracket(m1, m2) -> MomentPolynomial:
    raw = leibniz(_index_as_epoly(m1), _index_as_epoly(m2), _epoly_pair_bracket)
    return _epoly_to_moments(raw, len(m1))


def test_oracle_coordinate_round_trip():
    """Expanding a moment into raw expectation values and re-expressing it
    through central moments is the identity (both conversion layers of the
    reference are mutually inverse)."""
    for idx in indices.iter_indices(4, 1) + indices.iter_indices(3, 2):
        got = _epoly_to_moments(_index_as_epoly(idx), len(idx))
        assert got == MomentPolynomial.moment(idx)


def _reference_cases():
    """Every entry of the `brackets --order 5` and `--order 3 --pairs 2`
    tables, and every pair with an order-1 index at those sizes."""
    for order, npairs in ((5, 1), (3, 2)):
        yield from itertools.combinations(indices.iter_indices(order, npairs), 2)
        idxs = indices.iter_indices(order, npairs, min_order=1)
        for m1, m2 in itertools.combinations_with_replacement(idxs, 2):
            if 1 in (indices.order(m1), indices.order(m2)):
                yield m1, m2


def _as_variable(idx):
    """The variable of the equations of motion that an index stands for:
    ("q", i) or ("p", i) at order 1, ("D", idx) above."""
    if indices.order(idx) > 1:
        return ("D", idx)
    pair = next(i for i, exps in enumerate(idx) if exps != (0, 0))
    return ("q" if idx[pair] == (1, 0) else "p", pair)


def test_oracle_equals_full_expansion():
    """The bracket does not depend on q and p: the full expansion leaves no
    q/p term.  It equals the oracle on every table entry, and where an index
    is q or p it equals the q/p rules of moment_algebra._var_bracket, which
    the equations of motion use; both are taken in either order."""

    def bracket(m1, m2):
        got = _var_bracket(_as_variable(m1), _as_variable(m2), bracket_oracle, len(m1))
        return MomentPolynomial.zero(len(m1)) if got is None else got

    n = 0
    for m1, m2 in _reference_cases():
        full = _full_expansion_bracket(m1, m2)
        assert not any(v[0] in ("q", "p") for v in full.variables()), (m1, m2)
        assert full == bracket(m1, m2) == -bracket(m2, m1), (m1, m2)
        n += 1
    assert n == 153 + 435 + 39 + 130
