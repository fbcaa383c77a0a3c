"""Closed-form moment brackets and truncation-aware bracket tables.

The equations of motion evaluate the closed-form bracket of two single-pair
moments (bilinear terms plus a K-coefficient sum) for exactly the pairs the
Leibniz rule touches.  ``BracketTable`` entries, on any number of pairs, are
the brackets of the first-principles ``bracket_oracle``, which is
authoritative, truncated at the table order.  Counting a moment of order k
as hbar^(k/2), every term of {Delta(m1), Delta(m2)} has doubled hbar order
exactly order(m1) + order(m2) - 2 (each lambda of the commutator removes two
operator factors), as the tests prove; so an entry is either the oracle's
bracket whole or, above the truncation order, empty without an oracle
call.  The closed form takes its bilinear terms from the oracle's
``centering_term``, and the tests prove its K sum equal to the oracle's
commutator part.  The tests also prove the oracle equal to the definition
of the bracket, expanded in raw expectation values.

Sign convention.  In lambda = -i*hbar, the grading of ``exact``, the K
sum taken literally with weights (-lambda/2)^(n-1) yields {Delta(q^2),
Delta(p^2)} = -4*Delta(qp) plus a spurious imaginary (odd-power) constant
from n = 2, while the direct derivation from the defining bracket gives
+4*Delta(qp).  Comparison with the oracle fixes the convention used here:
even n is dropped and the whole printed expression changes sign, i.e.

    {Delta(q^a p^b), Delta(q^c p^d)}
        = b c Delta(q^a p^(b-1)) Delta(q^(c-1) p^d)
        - a d Delta(q^(a-1) p^b) Delta(q^c p^(d-1))
        - sum_{n odd} (lambda/2)^(n-1) K^n_abcd Delta(q^(a+c-n) p^(b+d-n)),

a rational -K^n / 2^(n-1) at lambda^(n-1).  This reproduces the oracle
exactly for all orders exercised by the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import indices
from .common import ConfigError, is_int
from .exact import MomentPolynomial, leibniz
from .weyl_algebra import bracket_oracle, centering_term


class MomentAlgebraError(ValueError):
    pass


# The closed-form EOM brackets are proven equal to the oracle up to this
# truncation order (acceptance criterion 01): the config ceiling, which also
# bounds the wavefunction oracle's moment extraction.
MAX_ORDER = 7

MAX_TABLE_ENTRIES = 50_000


def kcoeff(n: int, a: int, b: int, c: int, d: int) -> int:
    """K^n_{abcd} = sum_m (-1)^m m!(n-m)! C(a,m) C(b,n-m) C(c,n-m) C(d,m)."""
    if n < 1 or n > min(a + c, b + d, a + b, c + d):
        raise MomentAlgebraError(
            f"n={n} outside 1..min(a+c, b+d, a+b, c+d) for (a,b,c,d)=({a},{b},{c},{d})"
        )
    return sum(
        (-1) ** m * factorial(m) * factorial(n - m) * comb(a, m) * comb(b, n - m) * comb(c, n - m) * comb(d, m)
        for m in range(n + 1)
    )


@lru_cache(maxsize=None)
def closed_form_bracket(m1, m2) -> MomentPolynomial:
    """Closed-form {Delta(m1), Delta(m2)} for single-pair moments (cached)."""
    if len(m1) != 1 or len(m2) != 1:
        raise MomentAlgebraError("closed form applies to single-pair moments")
    if indices.order(m1) < 2 or indices.order(m2) < 2:
        raise MomentAlgebraError("closed form applies to moments of order >= 2")
    (a, b), (c, d) = m1[0], m2[0]
    result = centering_term(m1, m2)
    nmax = min(a + c, b + d, a + b, c + d)
    for n in range(1, nmax + 1, 2):
        # odd n only: even n brings an odd, imaginary power of lambda
        k = kcoeff(n, a, b, c, d)
        if k:
            coeff = Fraction(-k, 2 ** (n - 1))
            result = result + MomentPolynomial.moment(((a + c - n, b + d - n),), coeff, n - 1)
    return result


class BracketTable:
    """Antisymmetric table of moment brackets at a truncation order.

    Entries are stored for canonically ordered index pairs; the bracket of
    the reversed pair is the negated entry.  Stored polynomials are
    truncated by the semiclassical hbar-order filter.  ``validated`` records
    per entry that it is the oracle's truncated bracket: computed by the
    oracle, or empty by the hbar grading.
    """

    def __init__(self, truncation_order: int, npairs: int):
        self.truncation_order = truncation_order
        self.npairs = npairs
        self.entries: dict = {}
        self.validated: dict = {}

    def store(self, m1, m2, poly: MomentPolynomial):
        self.entries[(m1, m2)] = poly
        self.validated[(m1, m2)] = True

    def to_jsonable(self) -> dict:
        """The table as JSON-ready data, its entries in stored order, which
        ``build_bracket_table`` makes the index sort order of the pairs."""
        entries = [
            {
                "lhs": pair[0],
                "rhs": pair[1],
                "validated": self.validated[pair],
                "terms": poly.to_json_terms(),
            }
            for pair, poly in self.entries.items()
        ]
        return {
            "truncation_order": self.truncation_order,
            "pairs": self.npairs,
            "entries": entries,
        }


def table_entries(truncation_order: int, npairs: int) -> int:
    """Entries of the bracket table: one per unordered pair of the moment
    indices of orders 2..truncation_order on ``npairs`` pairs."""
    n_indices = sum(
        comb(total + 2 * npairs - 1, 2 * npairs - 1)
        for total in range(2, truncation_order + 1)
    )
    return n_indices * (n_indices - 1) // 2


def table_bound(order, pairs, order_field, pairs_field):
    """Refuse a bracket table of truncation order outside 2..MAX_ORDER, of
    fewer than one pair or of more than MAX_TABLE_ENTRIES entries, raising
    ConfigError that names the fields as the caller spells them."""
    if not (is_int(order) and 2 <= order <= MAX_ORDER):
        raise ConfigError(f"{order_field}: truncation order must be in 2..{MAX_ORDER}, got {order!r}")
    if not (is_int(pairs) and pairs >= 1):
        raise ConfigError(f"{pairs_field}: number of pairs must be >= 1, got {pairs!r}")
    entries = table_entries(order, pairs)
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(f"{pairs_field}: table with {entries} entries exceeds ceiling {MAX_TABLE_ENTRIES}")


@lru_cache(maxsize=None)
def build_bracket_table(truncation_order: int, npairs: int = 1) -> BracketTable:
    """Brackets of all moment index pairs up to the order, each the
    oracle's bracket truncated at the order.

    Every term of {Delta(m1), Delta(m2)} has doubled hbar order
    order(m1) + order(m2) - 2, so a pair above the truncation order stores
    the zero polynomial without calling ``bracket_oracle``, and a computed
    bracket needs no truncation.

    Results are cached per configuration and the table is immutable
    afterwards.
    """
    if truncation_order < 2:
        raise MomentAlgebraError("truncation order must be >= 2")
    n_entries = table_entries(truncation_order, npairs)
    if n_entries > MAX_TABLE_ENTRIES:
        raise MomentAlgebraError(
            f"table with {n_entries} entries exceeds ceiling {MAX_TABLE_ENTRIES}"
        )
    idxs = indices.iter_indices(truncation_order, npairs)
    orders = [indices.order(m) for m in idxs]
    table = BracketTable(truncation_order, npairs)
    for i, m1 in enumerate(idxs):
        for m2, order2 in zip(idxs[i + 1 :], orders[i + 1 :]):
            if orders[i] + order2 - 2 > truncation_order:
                table.store(m1, m2, MomentPolynomial.zero(npairs))
            else:
                table.store(m1, m2, bracket_oracle(m1, m2))
    return table


def leibniz_bracket(f: MomentPolynomial, g: MomentPolynomial, pair_bracket):
    """Bilinear Leibniz bracket given {Delta_i, Delta_j} = pair_bracket.

    Includes the canonical {q_i, p_i} = 1 contribution of the basic
    variables; moments are Poisson orthogonal to q and p.  Only the moment
    pairs (x, y) with x in f and y in g are passed to ``pair_bracket``.
    """
    if f.npairs != g.npairs:
        raise MomentAlgebraError("operands live on different pair counts")
    return leibniz(f, g, lambda x, y: _var_bracket(x, y, pair_bracket, f.npairs))


def _var_bracket(x, y, pair_bracket, npairs):
    kx, ky = x[0], y[0]
    if kx == "D" and ky == "D":
        return pair_bracket(x[1], y[1])
    if kx == "D" or ky == "D":
        return None  # moments are Poisson orthogonal to q and p
    if kx == "q" and ky == "p" and x[1] == y[1]:
        return MomentPolynomial.constant(1, npairs)
    if kx == "p" and ky == "q" and x[1] == y[1]:
        return MomentPolynomial.constant(-1, npairs)
    return None
