"""Exact scalars and the sparse polynomials built on them.

Coefficients live in Q[i] (Gaussian rationals); powers of hbar are kept as
an explicit grading so a single symbolic table serves any numerical hbar.
All arithmetic is exact and equality is decidable; i^2 = -1 folds into the
rational sign.  Each part of a coefficient is held in canonical form: a
Python ``int`` when it is integral, a ``Fraction`` only when its denominator
is not 1.  Nearly every product the bracket oracle makes has integral parts,
and an int product skips the gcd and ``Fraction.__new__`` of a Fraction one;
an int prints, converts to float and hashes like the equal Fraction, so
tables and generated code do not depend on the form.

``SparsePolynomial`` is the linear structure over these coefficients that
the commutative ``MomentPolynomial`` here and the normal-ordered
``weyl_algebra.OperatorPoly`` share; each subclass adds its own product.
"""

from __future__ import annotations

from fractions import Fraction

from . import indices


class GaussianRational:
    """Exact complex rational re + i*im; each part is an int when integral,
    else a Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _canonical(re)
        self.im = _canonical(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gr(a + c if a and c else a or c, b + d if b and d else b or d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        a, b = self.re, self.im
        return _gr(-a if a else a, -b if b else b)

    def __mul__(self, other):
        # Coefficients of the exact algebra are almost always purely real or
        # purely imaginary; those products take one product of parts.
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            if not d:
                return _gr(a * c, 0)
            if not c:
                return _gr(0, a * d)
        elif not a:
            if not d:
                return _gr(0, b * c)
            if not c:
                return _gr(-(b * d), 0)
        return _gr(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__
    __radd__ = __add__

    def mul_ipow(self, k: int) -> "GaussianRational":
        """Multiply by i**k."""
        k %= 4
        if k == 0:
            return self
        if k == 1:
            return _gr(-self.im, self.re)
        if k == 2:
            return -self
        return _gr(self.im, -self.re)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its Fraction, so it must hash like one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def as_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _canonical(x):
    """A part as an int when integral, else as a Fraction."""
    if x.__class__ is int:
        return x
    if x.__class__ is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _gr(re, im) -> GaussianRational:
    """GaussianRational from two int or Fraction parts, without __init__'s
    coercion; the canonical form is inlined, since every product ends here."""
    z = object.__new__(GaussianRational)
    z.re = re if re.__class__ is int or re.denominator != 1 else re.numerator
    z.im = im if im.__class__ is int or im.denominator != 1 else im.numerator
    return z


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


GR_ONE = GaussianRational(1)


def _accumulate(terms: dict, key, c) -> None:
    """Add ``c`` to ``terms[key]``, dropping the key when the sum is zero."""
    acc = terms.get(key)
    s = c if acc is None else acc + c
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


def _subscript(slot: int, power: int) -> str:
    """y[slot], or its power as a left-associated product: numpy's array
    ``**`` and libm's ``pow`` part in the last bit, a product does not."""
    return f"y[{slot}]" if power == 1 else "(" + "*".join([f"y[{slot}]"] * power) + ")"


class SparsePolynomial:
    """Sparse hbar-graded polynomial over Q[i] on ``npairs`` canonical pairs.

    Terms map ``(hbar_power, monomial)`` to a nonzero GaussianRational.  A
    subclass fixes what a monomial is and how two of them multiply; the
    linear structure is shared, and each result has the type of ``self``,
    so polynomials of different subclasses never mix or compare equal.
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
        """The one term coeff * hbar^hbar_power * monomial (zero if coeff is)."""
        coeff = _coerce(coeff)
        return cls(npairs, {(hbar_power, monomial): coeff} if coeff else {})

    def _check(self, other):
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
        factor = _coerce(factor)
        if factor.is_zero:
            return self.zero(self.npairs)
        return type(self)(self.npairs, {k: c * factor for k, c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.npairs == other.npairs and self.terms == other.terms

    def __hash__(self):
        return hash((self.npairs, frozenset(self.terms.items())))


class MomentPolynomial(SparsePolynomial):
    """Commutative polynomial in q, p, moment symbols and hbar.

    Terms map ``(hbar_power, variables)`` to a GaussianRational, where
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
        n = indices.order(idx)
        if n == 1:
            return cls.zero(len(idx))
        return cls.term(len(idx), hbar_power, ((("D", idx), 1),) if n else (), coeff)

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
        return all(c.is_real for c in self.terms.values())

    def imag_part(self) -> "MomentPolynomial":
        terms = {}
        for k, c in self.terms.items():
            if c.im:
                terms[k] = GaussianRational(c.im)
        return MomentPolynomial(self.npairs, terms)

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
        hbar^j; monomials with total exceeding max_order/2 are removed, and
        any surviving single moment of order > max_order is set to zero.
        """
        terms = {}
        for key, c in self.terms.items():
            if self.hbar_order_doubled(key) > max_order:
                continue
            if any(
                v[0] == "D" and indices.order(v[1]) > max_order
                for v, _ in key[1]
            ):
                continue
            terms[key] = c
        return MomentPolynomial(self.npairs, terms)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, hbar: float, basic=None, moments=None):
        """Numeric value; ``basic`` maps ("q", i)/("p", i), ``moments`` maps
        a moment index to its value.  Returns complex if any coefficient is
        complex, else float."""
        basic = basic or {}
        moments = moments or {}
        total = 0j
        any_imag = False
        for (h, vars_), c in self.terms.items():
            val = c.as_complex()
            if c.im:
                any_imag = True
            if h:
                val *= hbar**h
            for v, power in vars_:
                if v[0] == "D":
                    base = moments[v[1]]
                else:
                    base = basic[v]
                val *= base**power
            total += val
        return total if any_imag else total.real

    def as_code(self, positions: dict, hbar: float, factor=None) -> str:
        """Python expression with variables replaced by y[<slot>] lookups.

        Coefficients must be real; terms are emitted in sorted key order so
        generated code is deterministic.  ``factor(slot, power)``, if given,
        writes a variable's power instead of ``_subscript``.
        """
        parts = []
        for key in sorted(self.terms):
            h, vars_ = key
            c = self.terms[key]
            if c.im:
                raise ValueError("cannot compile complex coefficient")
            value = float(c.re) * (hbar**h if h else 1.0)
            factors = [repr(value)]
            for v, power in vars_:
                factors.append((factor or _subscript)(positions[v], power))
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0.0"

    # -- presentation -------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            h, vars_ = key
            c = self.terms[key]
            factors = []
            s = repr(c)
            if ("+" in s[1:]) or ("-" in s[1:]):
                s = f"({s})"
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
        """Deterministic JSON-ready term list for table dumps."""
        out = []
        for key in sorted(self.terms):
            h, vars_ = key
            c = self.terms[key]
            entry = {
                "coeff_re": str(c.re),
                "hbar": h,
                "q": {},
                "p": {},
                "moments": [],
            }
            if c.im:
                entry["coeff_im"] = str(c.im)
            for v, power in vars_:
                if v[0] == "D":
                    entry["moments"].append(
                        {"index": indices.to_jsonable(v[1]), "power": power}
                    )
                else:
                    entry[v[0]][str(v[1])] = power
            out.append(entry)
        return out


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
