"""Effective Hamiltonian <H> over basic variables and central moments.

For H = p^2/2m + V(q) in symmetric ordering the expectation value expands
into the classical energy plus moment couplings: Delta(p^2) couples with
1/(2m) and Delta(q^a) with V^(a)(q)/a!.  For polynomial potentials the
expansion is exact once the truncation order reaches the degree.
``equations_of_motion`` builds H_eff and its vector field in one call.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import indices
from .exact import MomentPolynomial, hbar_parts
from .moment_algebra import closed_form_bracket, leibniz_bracket


class PolynomialPotential:
    """V(q) = sum c_k q^k with exact coefficient bookkeeping."""

    def __init__(self, coefficients, mass=1):
        self.coefficients = [Fraction(c) for c in coefficients]
        while self.coefficients and not self.coefficients[-1]:
            self.coefficients.pop()
        self.mass = Fraction(mass)
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        # float coefficients of each derivative order ``value`` has taken
        self._float_coefficients = {}

    @property
    def degree(self) -> int:
        return max(len(self.coefficients) - 1, 0)

    def derivative_coefficients(self, k: int) -> list:
        coeffs = self.coefficients
        for _ in range(k):
            coeffs = [i * c for i, c in enumerate(coeffs)][1:]
        return coeffs

    def value(self, q, derivative: int = 0):
        """Horner evaluation at a float or elementwise on an array of q.

        Horner starts from ``0.0 * q``, so an array of q gives an array of
        its shape even when the polynomial (or the derivative) is zero.
        """
        coeffs = self._float_coefficients.get(derivative)
        if coeffs is None:
            coeffs = [float(c) for c in self.derivative_coefficients(derivative)]
            self._float_coefficients[derivative] = coeffs
        acc = 0.0 * q
        for c in reversed(coeffs):
            acc = acc * q + c
        return acc

    def as_polynomial(self, derivative: int = 0) -> MomentPolynomial:
        poly = MomentPolynomial.zero()
        q = MomentPolynomial.q()
        for k, c in enumerate(self.derivative_coefficients(derivative)):
            if c:
                poly = poly + (q**k).scale(c)
        return poly

    def __repr__(self):
        return f"PolynomialPotential({[str(c) for c in self.coefficients]}, mass={self.mass})"


class MomentVectorField:
    """Hamiltonian vector field on (q, p, moments) at a truncation order."""

    def __init__(self, layout, exprs, potential, heff):
        self.layout = tuple(layout)
        self.exprs = tuple(exprs)
        self.potential = potential
        self.heff = heff
        self.positions = {var: i for i, var in enumerate(self.layout)}
        self._generated = {}  # hbar -> (rhs, ham)

    def expression(self, var) -> MomentPolynomial:
        return self.exprs[self.positions[var]]

    def compiled(self, hbar: float):
        """rhs(t, y) of ``source(hbar)``, generated once per hbar value.

        ``y`` is any sequence of one value per layout slot: the single-state
        integrator passes a list of Python floats for its steps and a list
        of row arrays (one value per held step) for the interpolants of
        its sampled steps, the batch integrator a list of row arrays (one
        value per cell).  It returns a list of the derivatives in layout
        order, with the same bits on floats and on arrays.
        """
        return self._functions(hbar)[0]

    def energy_function(self, hbar: float):
        """ham(y) = <H_eff> of a state vector, from ``source(hbar)`` like
        ``compiled``."""
        return self._functions(hbar)[1]

    def _functions(self, hbar):
        key = float(hbar)
        fns = self._generated.get(key)
        if fns is None:
            ns = {}
            exec(self.source(key), {"__builtins__": {}}, ns)
            fns = self._generated[key] = ns["rhs"], ns["ham"]
        return fns

    def source(self, hbar: float) -> str:
        """The code of ``rhs(t, y)``, the list of ``exprs``, and ``ham(y)``,
        ``heff``, at one hbar value.

        Each function unpacks ``y`` into locals once and computes each power
        it needs once, as a left-associated product ``y{i}_{k} =
        y{i}_{k-1}*y{i}``, never by ``**``: numpy's array ``**`` and libm's
        ``pow`` part in the last bit, a product does not.  A term is its
        coefficient (lambda^h taken to hbar^h) times its variables' powers in
        key order, multiplied left to right, and terms are summed in sorted
        key order.  A coefficient of 1.0 is left out and a negative one is
        subtracted: the same IEEE operations as multiplying by 1.0 and adding
        the negated term.
        """
        hbar = float(hbar)
        lines = []
        for signature, exprs, value in (
            ("rhs(t, y)", self.exprs, "[\n        {},\n    ]"),
            ("ham(y)", [self.heff], "{}"),
        ):
            top = {}  # the highest power of each slot
            codes = [self._code(expr, hbar, top) for expr in exprs]
            lines += [f"def {signature}:", "    " + "".join(f"y{i}, " for i in range(len(self.layout))) + "= y"]
            lines += [
                f"    {_power(slot, k)} = {_power(slot, k - 1)}*y{slot}"
                for slot in sorted(top)
                for k in range(2, top[slot] + 1)
            ]
            lines.append("    return " + value.format(",\n        ".join(codes)))
        return "\n".join(lines) + "\n"

    def _code(self, poly, hbar, top) -> str:
        """One real polynomial as an expression over the locals of ``source``,
        raising in ``top`` the highest power it takes of each slot."""
        code = ""
        for key in sorted(poly.terms):
            h, vars_ = key
            re, im = hbar_parts(h, poly.terms[key])
            if im:
                raise ValueError("cannot compile complex coefficient")
            value = repr(float(re) * (hbar**h if h else 1.0))
            sign, value = ("-", value[1:]) if value[0] == "-" else ("+", value)
            factors = [] if value == "1.0" and vars_ else [value]
            for v, power in vars_:
                slot = self.positions[v]
                top[slot] = max(power, top.get(slot, 1))
                factors.append(_power(slot, power))
            term = "*".join(factors)
            if code:
                code += f" {sign} {term}"
            else:
                code = term if sign == "+" else "-" + term
        return code or "0.0"


def _power(slot: int, power: int) -> str:
    """The local that holds a power of the state's slot in ``source``."""
    return f"y{slot}" if power == 1 else f"y{slot}_{power}"


def equations_of_motion(potential, truncation_order: int) -> MomentVectorField:
    """Xdot = {X, H_eff} for every state coordinate, closed by truncation.

    H_eff, an exact polynomial in q, p and the moment symbols, is built
    once and kept on the field.  It holds only Delta(p^2) and Delta(q^a),
    so the Leibniz rule needs one column of moment brackets; the closed
    form supplies exactly those (tests prove it equal to the oracle).  The
    q and p equations pick up moment back-reaction through the
    (q, p)-dependence of the coupling coefficients; results are filtered by
    the semiclassical truncation rule so the system closes.
    """
    if truncation_order < 2:
        raise ValueError("truncation order must be >= 2")
    half_over_mass = Fraction(1, 2) / potential.mass
    p = MomentPolynomial.p()
    heff = (p * p).scale(half_over_mass)
    heff = heff + potential.as_polynomial(0)
    heff = heff + MomentPolynomial.moment(indices.single(0, 2)).scale(half_over_mass)
    for a in range(2, min(truncation_order, potential.degree) + 1):
        coupling = potential.as_polynomial(a).scale(Fraction(1, factorial(a)))
        heff = heff + coupling * MomentPolynomial.moment(indices.single(a, 0))
    layout = indices.state_layout(truncation_order)
    exprs = []
    for var in layout:
        if var[0] == "D":
            f = MomentPolynomial.moment(var[1])
        elif var[0] == "q":
            f = MomentPolynomial.q()
        else:
            f = MomentPolynomial.p()
        xdot = leibniz_bracket(f, heff, closed_form_bracket)
        exprs.append(xdot.truncate(truncation_order))
    return MomentVectorField(layout, exprs, potential, heff)
