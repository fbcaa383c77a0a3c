"""Exact operator algebra for centered canonical pairs.

Operators are stored in normal order (every position factor left of every
momentum factor, per canonical pair), which is the unique rewriting terminus
of the commutation relation (p-hat - p)(q-hat - q) = (q-hat - q)(p-hat - p)
- i*hbar.  Weyl (symmetric) ordering is a derived basis reached through a
cached triangular change-of-basis table; expectation values of Weyl-ordered
centered monomials are the moment symbols Delta(q^a p^b).

The module also provides ``bracket_oracle``, a first-principles evaluation
of the Poisson bracket of two moments: each moment is expanded into a
``MomentPolynomial`` whose variables are raw expectation values of
operator monomials, the defining bracket {<A>, <B>} = <[A, B]>/(i*hbar)
of two such variables comes from the symbolic commutator, and
``exact.leibniz`` extends it to the polynomials.  The result is evaluated
at the phase-space origin q = p = 0, where each raw expectation value is
a central moment expression.  That is exact everywhere: central moments
are Poisson orthogonal to q and p, so their brackets are the same
polynomial at every point of the classical phase space.  Before the
Leibniz step each expansion loses its terms whose order-1 coordinates
E[q_i], E[p_i] have total power >= 2: one partial derivative leaves such a
term with power >= 1, and the factors dg/dy and {x, y} only add powers, so
every product made from it vanishes at the origin.  Terms of power 1 stay,
since they survive when x is that coordinate.  The tests prove the origin
evaluation equal to the full expansion around (q, p), and every closed-form
bracket in the package equal to the oracle; bracket tables store its values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import indices
from .exact import (
    GR_ONE,
    GaussianRational,
    MomentPolynomial,
    _accumulate,
    _coerce,
    leibniz,
)


class NonHermitianError(ValueError):
    """Raised when a Hermitian expectation retains an imaginary part."""


class OperatorPoly:
    """Normal-ordered polynomial in centered canonical operators.

    Terms map ``(hbar_power, exps)`` to a GaussianRational where ``exps``
    holds one ``(a, b)`` exponent pair per canonical pair.  Different pairs
    commute; the zero polynomial has no terms.
    """

    __slots__ = ("npairs", "terms")

    def __init__(self, npairs: int = 1, terms: dict | None = None):
        self.npairs = npairs
        self.terms = terms if terms is not None else {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, npairs: int = 1):
        return cls(npairs, {})

    @classmethod
    def identity(cls, npairs: int = 1):
        zero_exps = tuple((0, 0) for _ in range(npairs))
        return cls(npairs, {(0, zero_exps): GR_ONE})

    @classmethod
    def monomial(cls, exps, coeff=1, hbar_power: int = 0):
        coeff = _coerce(coeff)
        if coeff.is_zero:
            return cls(len(exps), {})
        return cls(len(exps), {(hbar_power, tuple(exps)): coeff})

    @classmethod
    def position(cls, pair: int = 0, npairs: int = 1):
        exps = tuple((1, 0) if i == pair else (0, 0) for i in range(npairs))
        return cls.monomial(exps)

    @classmethod
    def momentum(cls, pair: int = 0, npairs: int = 1):
        exps = tuple((0, 1) if i == pair else (0, 0) for i in range(npairs))
        return cls.monomial(exps)

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if self.npairs != other.npairs:
            raise ValueError("mixing operators over different pair counts")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(terms, key, c)
        return OperatorPoly(self.npairs, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OperatorPoly(self.npairs, {k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        factor = _coerce(factor)
        if factor.is_zero:
            return OperatorPoly.zero(self.npairs)
        return OperatorPoly(
            self.npairs, {k: c * factor for k, c in self.terms.items()}
        )

    # -- operator product ---------------------------------------------------

    def __mul__(self, other):
        """Associative product; reordering applies the pairwise commutator
        exhaustively so the result is again in canonical normal order."""
        self._check(other)
        terms = {}
        for (h1, e1), c1 in self.terms.items():
            for (h2, e2), c2 in other.terms.items():
                base = c1 * c2
                for extra_h, exps, factor in _normal_products(e1, e2):
                    _accumulate(terms, (h1 + h2 + extra_h, exps), base * factor)
        return OperatorPoly(self.npairs, terms)

    def commutator(self, other) -> "OperatorPoly":
        return self * other - other * self

    def divide_ihbar(self) -> "OperatorPoly":
        """Exact division by i*hbar; every term must carry hbar."""
        terms = {}
        for (h, exps), c in self.terms.items():
            if h < 1:
                raise ValueError("term without hbar cannot be divided by i*hbar")
            terms[(h - 1, exps)] = c.mul_ipow(3)
        return OperatorPoly(self.npairs, terms)

    # -- inspection ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.npairs == other.npairs and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            h, exps = key
            c = self.terms[key]
            factors = [f"({c})"]
            if h:
                factors.append("hbar" if h == 1 else f"hbar^{h}")
            for i, (a, b) in enumerate(exps):
                tag = "" if self.npairs == 1 else str(i + 1)
                if a:
                    factors.append(f"Q{tag}" + (f"^{a}" if a > 1 else ""))
                if b:
                    factors.append(f"P{tag}" + (f"^{b}" if b > 1 else ""))
            bits.append("*".join(factors))
        return " + ".join(bits)


@lru_cache(maxsize=None)
def _pair_product(b1: int, a2: int):
    """Reordering table for P^b1 * Q^a2 within one pair.

    Returns tuples (k, coeff) meaning a contribution of
    coeff * (-i*hbar)^k with k position and momentum exponents removed.
    The coefficient includes the (-i)^k phase; hbar_power equals k.
    """
    out = []
    for k in range(min(b1, a2) + 1):
        count = comb(b1, k) * comb(a2, k) * factorial(k)
        out.append((k, GaussianRational(count).mul_ipow(3 * k)))
    return tuple(out)


def _normal_products(e1, e2):
    """All normal-ordered contributions of a product of two monomials."""
    per_pair = []
    for (a1, b1), (a2, b2) in zip(e1, e2):
        opts = [
            (k, (a1 + a2 - k, b1 + b2 - k), c)
            for k, c in _pair_product(b1, a2)
        ]
        per_pair.append(opts)
    for combo in itertools.product(*per_pair):
        h = sum(k for k, _, _ in combo)
        exps = tuple(e for _, e, _ in combo)
        factor = GR_ONE
        for _, _, c in combo:
            factor = factor * c
        yield h, exps, factor


# ---------------------------------------------------------------------------
# Weyl symmetrization and the ordering change of basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _word_sum(a: int, b: int) -> OperatorPoly:
    """Sum of the distinct words in a (q-hat-q)'s and b (p-hat-p)'s,
    normal-ordered: the words that start with Q plus those that start with P.
    """
    if a == b == 0:
        return OperatorPoly.identity(1)
    acc = OperatorPoly.zero(1)
    if a:
        acc = acc + OperatorPoly.position() * _word_sum(a - 1, b)
    if b:
        acc = acc + OperatorPoly.momentum() * _word_sum(a, b - 1)
    return acc


@lru_cache(maxsize=None)
def weyl_symmetrize(a: int, b: int) -> OperatorPoly:
    """Average of all (a+b)! orderings of (q-hat-q)^a (p-hat-p)^b.

    Equal words contribute identical summands, so this is the mean of the
    C(a+b, a) distinct words, normal-ordered.  The leading monomial (a, b)
    always carries coefficient 1.
    """
    if a < 0 or b < 0:
        raise ValueError("exponents must be non-negative")
    return _word_sum(a, b).scale(Fraction(1, comb(a + b, a)))


@lru_cache(maxsize=None)
def weyl_monomial(idx) -> OperatorPoly:
    """Weyl-ordered centered monomial for a multi-pair moment index."""
    npairs = len(idx)
    result = OperatorPoly.identity(npairs)
    for pair, (a, b) in enumerate(idx):
        if a == 0 and b == 0:
            continue
        embedded = OperatorPoly(
            npairs,
            {
                (h, _embed(exps[0], pair, npairs)): c
                for (h, exps), c in weyl_symmetrize(a, b).terms.items()
            },
        )
        result = result * embedded
    return result


def _embed(pair_exps, pair, npairs):
    return tuple(
        pair_exps if i == pair else (0, 0) for i in range(npairs)
    )


@lru_cache(maxsize=None)
def _weyl_in_normal(a: int, b: int):
    """W(a,b) = sum of coeff * hbar^h * N(a-k, b-k), as a tuple of items."""
    return tuple(
        ((h, exps[0]), c)
        for (h, exps), c in sorted(weyl_symmetrize(a, b).terms.items())
    )


@lru_cache(maxsize=None)
def _normal_in_weyl(a: int, b: int):
    """Inverse change of basis: N(a,b) as combination of Weyl monomials.

    Triangular inversion of _weyl_in_normal; returns tuple of
    ((hbar_power, (alpha, beta)), coeff) items.
    """
    acc = {(0, (a, b)): GR_ONE}
    for (h, (al, be)), c in _weyl_in_normal(a, b):
        if (al, be) == (a, b):
            continue
        for (h2, target), c2 in _normal_in_weyl(al, be):
            _accumulate(acc, (h + h2, target), -(c * c2))
    return tuple(sorted(acc.items()))


def expectation(op: OperatorPoly, require_real: bool = False) -> MomentPolynomial:
    """Expectation value of a normal-ordered centered operator polynomial.

    Each centered monomial is rewritten in the Weyl basis and the Weyl
    monomial (a, b) is mapped to Delta(q^a p^b); order-one moments vanish
    and the order-zero moment is the constant 1.  With ``require_real`` a
    residual imaginary coefficient reports a non-Hermitian input.
    """
    terms = {}
    for (h, exps), c in op.terms.items():
        conversions = [_normal_in_weyl(a, b) for a, b in exps]
        for combo in itertools.product(*conversions):
            coeff = c
            total_h = h
            widx = []
            for (h_i, pair_weyl), c_i in combo:
                coeff = coeff * c_i
                total_h += h_i
                widx.append(pair_weyl)
            mono = MomentPolynomial.moment(tuple(widx), coeff)
            for (hk, v), cc in mono.terms.items():
                _accumulate(terms, (hk + total_h, v), cc)
    result = MomentPolynomial(op.npairs, terms)
    if require_real and not result.is_real:
        raise NonHermitianError(
            "expectation of a non-Hermitian operator: %r" % result.imag_part()
        )
    return result


# ---------------------------------------------------------------------------
# First-principles bracket oracle
# ---------------------------------------------------------------------------
#
# State-space coordinates for the oracle are the raw expectation values
# E[alpha] = <prod_i q_i^{a_i} p_i^{b_i}> of normal-ordered, uncentered
# monomials (alpha is an exps tuple).  A central moment is a MomentPolynomial
# whose variables are these coordinates; brackets descend from
# <[A,B]>/(i*hbar) on the coordinates plus the Leibniz rule, and are then
# evaluated at q = p = 0.


def _is_trivial(alpha) -> bool:
    return all(a == 0 and b == 0 for a, b in alpha)


@lru_cache(maxsize=None)
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
                    coeff = GaussianRational(
                        comb(al, j) * comb(be, k) * (-1) ** (al - j + be - k)
                    )
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


def _basic_alpha(pair, npairs, kind):
    return tuple(
        ((1, 0) if kind == "q" else (0, 1)) if i == pair else (0, 0)
        for i in range(npairs)
    )


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _evar_at_origin(alpha) -> MomentPolynomial:
    """Raw expectation E[alpha] at q = p = 0, where every raw monomial is
    its centered one."""
    return expectation(OperatorPoly.monomial(alpha))


def _index_as_epoly(idx) -> MomentPolynomial:
    n = indices.order(idx)
    if n == 0:
        return MomentPolynomial.constant(GR_ONE, len(idx))
    if n == 1:
        return MomentPolynomial.variable(idx, len(idx))
    return _uncentered_expectation_epoly(idx)


@lru_cache(maxsize=None)
def _index_as_origin_epoly(idx) -> MomentPolynomial:
    """``_index_as_epoly(idx)`` less its terms of order-1 power >= 2, none of
    whose Leibniz products survives at the origin (see the module docstring).
    """
    return MomentPolynomial(
        len(idx),
        {
            (h, vars_): c
            for (h, vars_), c in _index_as_epoly(idx).terms.items()
            if sum(p for alpha, p in vars_ if indices.order(alpha) == 1) < 2
        },
    )


@lru_cache(maxsize=None)
def bracket_oracle(m1, m2) -> MomentPolynomial:
    """Poisson bracket of two moments, from first principles.

    ``m1`` and ``m2`` are moment indices of order >= 2, or order-1 indices
    standing for the basic expectation values q and p.  The bracket of the
    raw-expectation polynomials is evaluated at the phase-space origin
    q = p = 0: terms holding an order-1 coordinate vanish there, and every
    other E[alpha] is its centered moment expansion.  This is exact at every
    point, because central moments are Poisson orthogonal to q and p, so
    their brackets do not depend on q and p.  The Leibniz step runs on
    ``_index_as_origin_epoly``, which has already dropped the terms with
    order-1 power >= 2: no product made from them survives at the origin.
    The order-1 filter below still removes the terms that brackets and
    partials of the other coordinates leave with an order-1 factor.
    """
    npairs = len(m1)
    if len(m2) != npairs:
        raise ValueError("moment indices live on different pair counts")
    raw = leibniz(
        _index_as_origin_epoly(m1),
        _index_as_origin_epoly(m2),
        _epoly_pair_bracket,
    )
    terms = {}
    for (h, vars_), c in raw.terms.items():
        if any(indices.order(alpha) == 1 for alpha, _ in vars_):
            continue
        term = MomentPolynomial.constant(c, npairs, hbar_power=h)
        for alpha, power in vars_:
            for _ in range(power):
                term = term * _evar_at_origin(alpha)
        for key, cc in term.terms.items():
            _accumulate(terms, key, cc)
    result = MomentPolynomial(npairs, terms)
    if not result.is_real:
        raise AssertionError(
            "bracket oracle produced an imaginary part for %s, %s"
            % (indices.pretty(m1), indices.pretty(m2))
        )
    return result
