"""Exact coefficients and the sparse polynomials built on them.

Polynomials are graded in powers of lambda = -i*hbar, in which the
reordering rule P Q = Q P + lambda of a canonical pair is rational, so every
coefficient is an ``int``, or a ``Fraction`` whose denominator is not 1 (an
int product skips a Fraction's gcd, and an int prints, converts and hashes
like the equal Fraction).  A term c * lambda^h is c * (-i)^h * hbar^h, real
for even h and imaginary for odd h; only ``hbar_parts`` takes that step, so
one symbolic table serves any numerical hbar.

``SparsePolynomial`` is the linear structure over these coefficients that
the commutative ``MomentPolynomial`` here and the normal-ordered
``weyl_algebra.OperatorPoly`` share; each subclass adds its own product.
"""

from __future__ import annotations

from fractions import Fraction

from . import indices


def hbar_parts(h: int, c):
    """(re, im) of the hbar^h coefficient of c * lambda^h: c * (-i)^h."""
    s = c if h % 4 in (0, 3) else -c
    return (0, s) if h % 2 else (s, 0)


def hbar_str(h: int, c) -> str:
    """The hbar^h coefficient of c * lambda^h as text: "3/2" or "-1/2*i"."""
    re, im = hbar_parts(h, c)
    return f"{im}*i" if im else str(re)


def _rational(x):
    """An exact coefficient: an int or Fraction as it is, else a Fraction."""
    return x if x.__class__ is int or x.__class__ is Fraction else Fraction(x)


def _accumulate(terms: dict, key, c) -> None:
    """Add ``c`` to ``terms[key]``, dropping the key when the sum is zero
    and storing an integral sum as an int."""
    acc = terms.get(key)
    s = c if acc is None else acc + c
    if not s:
        terms.pop(key, None)
    elif s.__class__ is Fraction and s.denominator == 1:
        terms[key] = s.numerator
    else:
        terms[key] = s


class SparsePolynomial:
    """Sparse polynomial over Q on ``npairs`` canonical pairs.

    Terms map ``(hbar_power, monomial)`` to the nonzero coefficient of
    lambda^hbar_power * monomial.  A subclass fixes what a monomial is and
    how two of them multiply; the linear structure is shared, and each
    result has the type of ``self``, so polynomials of different subclasses
    never mix or compare equal.
    """

    __slots__ = ("npairs", "terms")

    def __init__(self, npairs: int = 1, terms: dict | None = None):
        self.npairs = npairs
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, npairs: int = 1):
        return cls(npairs, {})

    @classmethod
    def term(cls, npairs: int, hbar_power: int, monomial, coeff=1):
        """The one term coeff * lambda^hbar_power * monomial (zero if coeff is)."""
        terms = {}
        _accumulate(terms, (hbar_power, monomial), _rational(coeff))
        return cls(npairs, terms)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot mix {type(self).__name__} and {type(other).__name__}")
        if self.npairs != other.npairs:
            raise ValueError("mixing polynomials over different pair counts")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(terms, key, c)
        return type(self)(self.npairs, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.npairs, {k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        factor = _rational(factor)
        terms = {}
        for key, c in self.terms.items():
            _accumulate(terms, key, c * factor)
        return type(self)(self.npairs, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.npairs == other.npairs and self.terms == other.terms


class MomentPolynomial(SparsePolynomial):
    """Commutative polynomial in q, p, moment symbols and hbar.

    Terms map ``(hbar_power, variables)`` to a coefficient, where
    ``variables`` is a sorted tuple of ``(var, power)``.  First-order central
    moments never appear (they vanish identically) and the order-zero moment
    is folded into the constant term.

    A variable is ("q", pair), ("p", pair) or ("D", index); the string tags
    sort against each other, so mixed tuples are orderable.  The tests'
    definition-level bracket reference uses raw expectation values instead:
    each variable is an exponent tuple ((a_1, b_1), ..., (a_n, b_n)).
    """

    __slots__ = ()

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, npairs: int = 1, hbar_power: int = 0):
        return cls.term(npairs, hbar_power, (), value)

    @classmethod
    def q(cls, pair: int = 0, npairs: int = 1):
        return cls.term(npairs, 0, ((("q", pair), 1),))

    @classmethod
    def p(cls, pair: int = 0, npairs: int = 1):
        return cls.term(npairs, 0, ((("p", pair), 1),))

    @classmethod
    def moment(cls, idx, coeff=1, hbar_power: int = 0):
        """coeff * hbar^hbar_power * Delta(idx)."""
        vars_ = moment_vars(idx)
        if vars_ is None:
            return cls.zero(len(idx))
        return cls.term(len(idx), hbar_power, vars_, coeff)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, MomentPolynomial):
            return self.scale(other)
        self._check(other)
        terms = {}
        for (h1, v1), c1 in self.terms.items():
            for (h2, v2), c2 in other.terms.items():
                _accumulate(terms, (h1 + h2, _merge_vars(v1, v2)), c1 * c2)
        return MomentPolynomial(self.npairs, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = MomentPolynomial.constant(1, self.npairs)
        for _ in range(n):
            result = result * self
        return result

    @property
    def is_real(self) -> bool:
        """No odd power of lambda, the imaginary terms."""
        return not any(h % 2 for h, _ in self.terms)

    # -- calculus and structure -------------------------------------------

    def diff(self, var) -> "MomentPolynomial":
        terms = {}
        for (h, vars_), c in self.terms.items():
            for i, (v, power) in enumerate(vars_):
                if v == var:
                    if power == 1:
                        new_vars = vars_[:i] + vars_[i + 1 :]
                    else:
                        new_vars = (
                            vars_[:i] + ((v, power - 1),) + vars_[i + 1 :]
                        )
                    _accumulate(terms, (h, new_vars), c * power)
                    break
        return MomentPolynomial(self.npairs, terms)

    def variables(self) -> set:
        out = set()
        for (_h, vars_) in self.terms:
            for v, _ in vars_:
                out.add(v)
        return out

    def hbar_order_doubled(self, key) -> int:
        """2x the semiclassical hbar order of one monomial key."""
        h, vars_ = key
        total = 2 * h
        for v, power in vars_:
            if v[0] == "D":
                total += power * indices.order(v[1])
        return total

    def truncate(self, max_order: int) -> "MomentPolynomial":
        """Drop monomials above the semiclassical truncation order.

        A moment of order k counts as hbar^(k/2), an explicit hbar^j as
        hbar^j; monomials with total exceeding max_order/2 are removed.  A
        moment of order > max_order alone exceeds it, so none survives.
        """
        terms = {key: c for key, c in self.terms.items() if self.hbar_order_doubled(key) <= max_order}
        return MomentPolynomial(self.npairs, terms)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, hbar: float, basic=None, moments=None):
        """Numeric value; ``basic`` maps ("q", i)/("p", i), ``moments`` maps
        a moment index to its value.  Returns complex if any term is
        imaginary, else float."""
        basic = basic or {}
        moments = moments or {}
        total = 0j
        for (h, vars_), c in self.terms.items():
            val = complex(*hbar_parts(h, c))
            if h:
                val *= hbar**h
            for v, power in vars_:
                if v[0] == "D":
                    base = moments[v[1]]
                else:
                    base = basic[v]
                val *= base**power
            total += val
        return total.real if self.is_real else total

    # -- presentation -------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            h, vars_ = key
            factors = []
            s = hbar_str(h, self.terms[key])
            if s != "1" or (not vars_ and not h):
                factors.append(s)
            if h:
                factors.append("hbar" if h == 1 else f"hbar^{h}")
            for v, power in vars_:
                if v[0] == "D":
                    name = indices.pretty(v[1])
                else:
                    name = v[0] if v[1] == 0 and self.npairs == 1 else f"{v[0]}{v[1]+1}"
                factors.append(name if power == 1 else f"{name}^{power}")
            bits.append("*".join(factors) if factors else "1")
        return " + ".join(bits)

    def to_json_terms(self) -> list:
        """Deterministic JSON-ready term list; a moment index stays a tuple."""
        out = []
        for key in sorted(self.terms):
            h, vars_ = key
            re, im = hbar_parts(h, self.terms[key])
            entry = {
                "coeff_re": str(re),
                "hbar": h,
                "q": {},
                "p": {},
                "moments": [],
            }
            if im:
                entry["coeff_im"] = str(im)
            for v, power in vars_:
                if v[0] == "D":
                    entry["moments"].append({"index": v[1], "power": power})
                else:
                    entry[v[0]][str(v[1])] = power
            out.append(entry)
        return out


def moment_vars(idx):
    """The variables of Delta(idx) in a ``MomentPolynomial`` term: none for
    the order-zero moment, the constant 1, and None for a first-order
    moment, which vanishes."""
    n = indices.order(idx)
    if n == 1:
        return None
    return ((("D", idx), 1),) if n else ()


def _merge_vars(v1, v2):
    if not v1:
        return v2
    if not v2:
        return v1
    merged = dict(v1)
    for v, power in v2:
        merged[v] = merged.get(v, 0) + power
    return tuple(sorted(merged.items()))


def leibniz(f: MomentPolynomial, g: MomentPolynomial, var_bracket) -> MomentPolynomial:
    """Bracket of two polynomials from the brackets of their variables.

    Sums df/dx * dg/dy * var_bracket(x, y) over the variables x of ``f`` and
    y of ``g``; pairs whose bracket is None or zero are skipped, and each
    partial of ``g`` is computed once.
    """
    terms = {}
    partials_g = {}
    gvars = sorted(g.variables())
    for x in sorted(f.variables()):
        fx = f.diff(x)
        for y in gvars:
            bracket = var_bracket(x, y)
            if bracket is None or bracket.is_zero:
                continue
            if y not in partials_g:
                partials_g[y] = g.diff(y)
            for key, c in (fx * partials_g[y] * bracket).terms.items():
                _accumulate(terms, key, c)
    return MomentPolynomial(f.npairs, terms)
