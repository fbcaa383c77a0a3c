"""Exact operator algebra for centered canonical pairs.

Operators are stored in normal order (every position factor left of every
momentum factor, per canonical pair), which is the unique rewriting terminus
of the commutation relation (p-hat - p)(q-hat - q) = (q-hat - q)(p-hat - p)
+ lambda, where lambda = -i*hbar grades every polynomial (see ``exact``), so
each coefficient is rational.  Weyl (symmetric) ordering is a derived basis
reached through a cached triangular change-of-basis table; expectation
values of Weyl-ordered centered monomials are the moment symbols
Delta(q^a p^b).

The module also provides ``bracket_oracle``, a first-principles evaluation
of the Poisson bracket of two central moments.  The defining bracket
{<A>, <B>} = <[A, B]>/(i*hbar) (Bojowald & Skirzewski, Rev. Math. Phys. 18
(2006)) holds for operators that do not depend on the state; a central
moment's operator is centered at q = <q-hat> and p = <p-hat>, and that
dependence adds ``centering_term``, the bilinear products of lower moments.
The tests prove the oracle equal to the definition expanded in raw
expectation values, and every closed-form bracket in the package equal to
the oracle; bracket tables store its values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import indices
from .exact import MomentPolynomial, SparsePolynomial, _accumulate, _merge_vars, hbar_str, moment_vars


class NonHermitianError(ValueError):
    """Raised when a Hermitian expectation retains an imaginary part."""


class OperatorPoly(SparsePolynomial):
    """Normal-ordered polynomial in centered canonical operators.

    Terms map ``(hbar_power, exps)`` to a coefficient of lambda^hbar_power
    where ``exps`` holds one ``(a, b)`` exponent pair per canonical pair.  Different pairs
    commute; the zero polynomial has no terms.
    """

    __slots__ = ()

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, npairs: int = 1):
        return cls.monomial(((0, 0),) * npairs)

    @classmethod
    def monomial(cls, exps, coeff=1, hbar_power: int = 0):
        return cls.term(len(exps), hbar_power, tuple(exps), coeff)

    @classmethod
    def position(cls, pair: int = 0, npairs: int = 1):
        exps = tuple((1, 0) if i == pair else (0, 0) for i in range(npairs))
        return cls.monomial(exps)

    @classmethod
    def momentum(cls, pair: int = 0, npairs: int = 1):
        exps = tuple((0, 1) if i == pair else (0, 0) for i in range(npairs))
        return cls.monomial(exps)

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
        """[self, other] in one pass over the term pairs.  The lambda^0 part
        of a product of two monomials is their merged monomial with factor
        1 in either order, so it cancels; only the reorderings that carry
        lambda (``extra_h`` >= 1) of the two products are summed."""
        self._check(other)
        terms = {}
        for (h1, e1), c1 in self.terms.items():
            for (h2, e2), c2 in other.terms.items():
                base = c1 * c2
                h = h1 + h2
                for extra_h, exps, factor in _normal_products(e1, e2):
                    if extra_h:
                        _accumulate(terms, (h + extra_h, exps), base * factor)
                for extra_h, exps, factor in _normal_products(e2, e1):
                    if extra_h:
                        _accumulate(terms, (h + extra_h, exps), -base * factor)
        return OperatorPoly(self.npairs, terms)

    def divide_ihbar(self) -> "OperatorPoly":
        """Exact division by i*hbar = -lambda; every term must carry hbar."""
        terms = {}
        for (h, exps), c in self.terms.items():
            if h < 1:
                raise ValueError("term without hbar cannot be divided by i*hbar")
            terms[(h - 1, exps)] = -c
        return OperatorPoly(self.npairs, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            h, exps = key
            c = self.terms[key]
            factors = [f"({hbar_str(h, c)})"]
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

    Returns tuples (k, count) meaning a contribution of count * lambda^k
    with k position and momentum exponents removed.
    """
    return tuple((k, comb(b1, k) * comb(a2, k) * factorial(k)) for k in range(min(b1, a2) + 1))


def _normal_products(e1, e2):
    """All normal-ordered contributions of a product of two monomials, as
    (extra hbar power, exponents, factor)."""
    out = [(0, (), 1)]
    for (a1, b1), (a2, b2) in zip(e1, e2):
        a, b = a1 + a2, b1 + b2
        out = [
            (h + k, exps + ((a - k, b - k),), c * ck)
            for h, exps, c in out
            for k, ck in _pair_product(b1, a2)
        ]
    return out


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
    """W(a,b) = sum of coeff * lambda^h * N(a-k, b-k), as a tuple of items."""
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
    acc = {(0, (a, b)): 1}
    for (h, (al, be)), c in _weyl_in_normal(a, b):
        if (al, be) == (a, b):
            continue
        for (h2, target), c2 in _normal_in_weyl(al, be):
            _accumulate(acc, (h + h2, target), -(c * c2))
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _monomial_expectation(exps):
    """Expectation of one normal-ordered centered monomial, as a tuple of
    ((hbar_power, variables), coeff) items: the product over pairs of each
    pair's Weyl expansion, the Weyl monomial of index w read as
    Delta(w)."""
    terms = {}
    for combo in itertools.product(*(_normal_in_weyl(a, b) for a, b in exps)):
        coeff = 1
        total_h = 0
        widx = []
        for (h_i, pair_weyl), c_i in combo:
            coeff = coeff * c_i
            total_h += h_i
            widx.append(pair_weyl)
        vars_ = moment_vars(tuple(widx))
        if vars_ is not None:
            _accumulate(terms, (total_h, vars_), coeff)
    return tuple(terms.items())


def expectation(op: OperatorPoly, require_real: bool = False) -> MomentPolynomial:
    """Expectation value of a normal-ordered centered operator polynomial.

    Each centered monomial is rewritten in the Weyl basis and the Weyl
    monomial (a, b) is mapped to Delta(q^a p^b); order-one moments vanish
    and the order-zero moment is the constant 1.  With ``require_real`` a
    residual imaginary term, an odd power of lambda, reports a non-Hermitian
    input.
    """
    terms = {}
    for (h, exps), c in op.terms.items():
        for (h_i, vars_), c_i in _monomial_expectation(exps):
            _accumulate(terms, (h + h_i, vars_), c * c_i)
    result = MomentPolynomial(op.npairs, terms)
    if require_real and not result.is_real:
        imaginary = {key: c for key, c in terms.items() if key[0] % 2}
        raise NonHermitianError(
            "expectation of a non-Hermitian operator: %r"
            % MomentPolynomial(op.npairs, imaginary)
        )
    return result


# ---------------------------------------------------------------------------
# First-principles bracket oracle
# ---------------------------------------------------------------------------


def _lowered(idx, pair, slot):
    """``idx`` with exponent ``slot`` (0 for q, 1 for p) of ``pair`` less one."""
    exps = list(idx[pair])
    exps[slot] -= 1
    return idx[:pair] + (tuple(exps),) + idx[pair + 1 :]


def centering_term(m1, m2) -> MomentPolynomial:
    """What the centering at (q, p) adds to <[W(m1), W(m2)]>/(i*hbar) in
    {Delta(m1), Delta(m2)}: over each pair, with (a, b) and (c, d) the
    exponents of m1 and m2 there,

        b c Delta(m1 with b-1) Delta(m2 with c-1)
        - a d Delta(m1 with a-1) Delta(m2 with d-1),

    because dW(a, b)/dQ = a W(a-1, b) and dW(a, b)/dP = b W(a, b-1)."""
    terms = {}
    for pair, ((a, b), (c, d)) in enumerate(zip(m1, m2)):
        if b * c:
            _add_moment_product(terms, b * c, _lowered(m1, pair, 1), _lowered(m2, pair, 0))
        if a * d:
            _add_moment_product(terms, -a * d, _lowered(m1, pair, 0), _lowered(m2, pair, 1))
    return MomentPolynomial(len(m1), terms)


def _add_moment_product(terms, coeff, x, y):
    """Add the term coeff * Delta(x) * Delta(y) to ``terms``."""
    vx, vy = moment_vars(x), moment_vars(y)
    if vx is not None and vy is not None:
        _accumulate(terms, (0, _merge_vars(vx, vy)), coeff)


@lru_cache(maxsize=None)
def bracket_oracle(m1, m2) -> MomentPolynomial:
    """Poisson bracket of two moments of order >= 2, from first principles:
    {<A>, <B>} = <[A, B]>/(i*hbar) on the Weyl-ordered centered monomials,
    plus ``centering_term``.  A bracket with an imaginary part raises
    NonHermitianError."""
    if len(m1) != len(m2):
        raise ValueError("moment indices live on different pair counts")
    if indices.order(m1) < 2 or indices.order(m2) < 2:
        raise ValueError(
            "the bracket oracle takes moments of order >= 2, not %s, %s"
            % (indices.pretty(m1), indices.pretty(m2))
        )
    comm = weyl_monomial(m1).commutator(weyl_monomial(m2)).divide_ihbar()
    return expectation(comm, require_real=True) + centering_term(m1, m2)
