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
from .exact import MomentPolynomial
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
        self._compiled = {}
        self._energy = {}

    def expression(self, var) -> MomentPolynomial:
        return self.exprs[self.positions[var]]

    def compiled(self, hbar: float):
        """rhs(t, y) callable generated once per hbar value.

        ``y`` is any sequence of one value per layout slot: the single-state
        integrator passes a list of Python floats, the batch integrator a
        list of row arrays (one value per cell).  It returns a list of the
        derivatives in layout order.  The code unpacks ``y`` into locals
        once and computes each power once, as a product, never by ``**``;
        every term keeps the operand order of ``as_code``, so the bits are
        those of its ``(y[i]*y[i]*...)`` form, on floats and on arrays alike.
        """
        key = float(hbar)
        fn = self._compiled.get(key)
        if fn is None:
            fn = self._compiled[key] = self._generate("rhs(t, y)", self.exprs, key)
        return fn

    def energy_function(self, hbar: float):
        """ham(y) = <H_eff> of a state vector, generated once per hbar value
        like ``compiled``."""
        key = float(hbar)
        fn = self._energy.get(key)
        if fn is None:
            fn = self._energy[key] = self._generate("ham(y)", self.heff, key)
        return fn

    def _generate(self, signature, exprs, hbar):
        """``def signature`` returning the value of one MomentPolynomial, or
        the list of values of a sequence of them."""
        top = {}  # the highest power of each slot

        def name(slot, power):
            return f"y{slot}" if power == 1 else f"y{slot}_{power}"

        def factor(slot, power):
            top[slot] = max(power, top.get(slot, 1))
            return name(slot, power)

        one = isinstance(exprs, MomentPolynomial)
        codes = [expr.as_code(self.positions, hbar, factor) for expr in ([exprs] if one else exprs)]
        lines = [f"def {signature}:", "    " + "".join(f"y{i}, " for i in range(len(self.layout))) + "= y"]
        # y_k = y_(k-1)*y: the left-associated product that as_code writes
        lines += [
            f"    {name(slot, k)} = {name(slot, k - 1)}*y{slot}"
            for slot in sorted(top)
            for k in range(2, top[slot] + 1)
        ]
        if one:
            lines.append(f"    return {codes[0]}")
        else:
            lines.append("    return [\n        " + ",\n        ".join(codes) + ",\n    ]")
        ns = {}
        exec("\n".join(lines) + "\n", {"__builtins__": {}}, ns)
        return ns[signature.split("(")[0]]


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
