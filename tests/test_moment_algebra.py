"""Closed-form brackets, tables and the Leibniz-extended Poisson bracket."""

import itertools
import json
import random
import re
import warnings
from fractions import Fraction
from functools import lru_cache

import pytest

from qmoments import indices
from qmoments.common import dumps_json
from qmoments.effective_hamiltonian import MomentVectorField
from qmoments.exact import MomentPolynomial, _accumulate, hbar_parts
from qmoments.indices import single
from qmoments.moment_algebra import (
    MomentAlgebraError,
    build_bracket_table,
    closed_form_bracket,
    kcoeff,
    leibniz_bracket,
)
from qmoments.weyl_algebra import OperatorPoly, bracket_oracle, expectation, weyl_monomial, weyl_symmetrize

D = MomentPolynomial.moment


def lookup(table):
    """The pair bracket {m1, m2} of a bracket table: the stored entry, the
    negated entry of the reversed pair, zero on the diagonal, or a
    MomentAlgebraError naming a pair the table lacks."""

    def bracket(m1, m2) -> MomentPolynomial:
        if m1 == m2:
            return MomentPolynomial.zero(table.npairs)
        if (m1, m2) in table.entries:
            return table.entries[(m1, m2)]
        if (m2, m1) in table.entries:
            return -table.entries[(m2, m1)]
        raise MomentAlgebraError(
            "missing bracket for %s, %s (table order %d)"
            % (indices.pretty(m1), indices.pretty(m2), table.truncation_order)
        )

    return bracket


def index_pairs(max_order: int, npairs: int = 1):
    """Unordered pairs (i1 <= i2 by sort order) of indices up to max_order."""
    return list(itertools.combinations_with_replacement(indices.iter_indices(max_order, npairs), 2))


@lru_cache(maxsize=None)
def operator_bracket(m1, m2) -> MomentPolynomial:
    """Bracket from the centered-operator commutator (any pair count), the
    reference for multi-pair brackets.

    {<A>, <B>} = <[A, B]>/(i hbar)
                 + sum_i (<dA/dP_i><dB/dQ_i> - <dA/dQ_i><dB/dP_i>),
    the correction terms coming from the state dependence of the centering.
    The commutator distributes across canonical pairs (operators on
    different pairs commute), which assembles multi-pair brackets from
    single-pair blocks.
    """
    wa = weyl_monomial(m1)
    wb = weyl_monomial(m2)
    result = expectation(wa.commutator(wb).divide_ihbar())
    for pair in range(len(m1)):
        aq = expectation(_op_derivative(wa, pair, "q"))
        ap = expectation(_op_derivative(wa, pair, "p"))
        bq = expectation(_op_derivative(wb, pair, "q"))
        bp = expectation(_op_derivative(wb, pair, "p"))
        result = result + ap * bq - aq * bp
    return result


def _op_derivative(op: OperatorPoly, pair: int, kind: str) -> OperatorPoly:
    terms = {}
    slot = 0 if kind == "q" else 1
    for (h, exps), c in op.terms.items():
        e = exps[pair][slot]
        if not e:
            continue
        new_pair = list(exps[pair])
        new_pair[slot] = e - 1
        new_exps = exps[:pair] + (tuple(new_pair),) + exps[pair + 1 :]
        _accumulate(terms, (h, new_exps), c * e)
    return OperatorPoly(op.npairs, terms)


@pytest.mark.parametrize(
    "idx, text",
    [
        (single(2, 1), "Delta(q^2 p)"),
        (single(0, 3), "Delta(p^3)"),
        (((1, 0), (0, 2)), "Delta(q1 p2^2)"),
        (((2, 1), (1, 0)), "Delta(q1^2 p1 q2)"),
    ],
)
def test_pretty_tags_pairs_only_when_there_are_several(idx, text):
    assert indices.pretty(idx) == text


def test_kcoeff_values():
    assert kcoeff(1, 1, 1, 1, 1) == 0
    assert kcoeff(1, 2, 0, 0, 2) == -4
    assert kcoeff(2, 2, 0, 0, 2) == 2


def test_kcoeff_rejects_out_of_range():
    with pytest.raises(MomentAlgebraError):
        kcoeff(0, 2, 0, 0, 2)
    with pytest.raises(MomentAlgebraError):
        kcoeff(3, 2, 0, 0, 2)


def test_closed_form_second_order_block():
    assert closed_form_bracket(single(2, 0), single(0, 2)) == D(single(1, 1), 4)
    assert closed_form_bracket(single(1, 1), single(0, 2)) == D(single(0, 2), 2)
    assert closed_form_bracket(single(2, 0), single(1, 1)) == D(single(2, 0), 2)


def test_closed_form_matches_oracle_with_bilinear_terms():
    got = closed_form_bracket(single(2, 1), single(1, 2))
    assert got == bracket_oracle(single(2, 1), single(1, 2))
    # bilinear products survive here, and hbar^2/2 = -lambda^2/2:
    expected = (
        D(single(2, 0)) * D(single(0, 2))
        + D(single(1, 1), -4) * D(single(1, 1))
        + D(single(2, 2), 3)
        + MomentPolynomial.constant(Fraction(-1, 2), 1, hbar_power=2)
    )
    assert got == expected


def test_closed_form_oracle_equivalence_order_5():
    for m1, m2 in index_pairs(5, 1):
        assert closed_form_bracket(m1, m2) == bracket_oracle(m1, m2)


def test_closed_form_requires_single_pair_moments():
    with pytest.raises(MomentAlgebraError):
        closed_form_bracket(((2, 0), (0, 0)), ((0, 0), (0, 2)))
    with pytest.raises(MomentAlgebraError):
        closed_form_bracket(single(1, 0), single(0, 2))


def test_operator_bracket_equals_oracle_two_pairs_order_3():
    for m1, m2 in index_pairs(3, 2):
        assert operator_bracket(m1, m2) == bracket_oracle(m1, m2)


def test_validated_bracket_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_bracket_table.cache_clear()
        build_bracket_table(3, 1)


def test_tables_never_consult_the_closed_forms(monkeypatch):
    """Every table entry is the oracle's bracket, truncated at the table
    order; closed forms that return zero change nothing.  The oracle is
    called for exactly the pairs whose grade order(m1) + order(m2) - 2 fits
    the truncation; the others are stored empty."""
    from qmoments import moment_algebra as ma

    zero = lambda m1, m2: MomentPolynomial.zero(len(m1))
    monkeypatch.setattr(ma, "closed_form_bracket", zero)
    called = []

    def recording_oracle(m1, m2):
        called.append((m1, m2))
        return bracket_oracle(m1, m2)

    monkeypatch.setattr(ma, "bracket_oracle", recording_oracle)
    build_bracket_table.cache_clear()
    try:
        for order, npairs in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
            called.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = build_bracket_table(order, npairs)
            assert table.entries
            for (m1, m2), entry in table.entries.items():
                assert entry == bracket_oracle(m1, m2).truncate(order)
            within = [(m1, m2) for m1, m2 in table.entries if indices.order(m1) + indices.order(m2) - 2 <= order]
            assert sorted(called) == sorted(within)
    finally:
        build_bracket_table.cache_clear()


@pytest.mark.parametrize("order, npairs", [(7, 1), (4, 2)])
def test_every_bracket_term_has_the_grade_of_its_pair(order, npairs):
    """Counting a moment of order k as hbar^(k/2), every term of the
    untruncated oracle bracket {Delta(m1), Delta(m2)} has doubled hbar order
    exactly order(m1) + order(m2) - 2.  This is what lets build_bracket_table
    store an empty entry above its truncation order without calling the
    oracle, and keep a computed bracket whole."""
    for m1, m2 in index_pairs(order, npairs):
        grade = indices.order(m1) + indices.order(m2) - 2
        bracket = bracket_oracle(m1, m2)
        for key in bracket.terms:
            assert bracket.hbar_order_doubled(key) == grade, (m1, m2, key)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_bracket_table(1), MomentAlgebraError, "truncation order must be >= 2"),
        (
            lambda: leibniz_bracket(MomentPolynomial.q(), MomentPolynomial.q(0, 2), bracket_oracle),
            MomentAlgebraError,
            "operands live on different pair counts",
        ),
        (
            lambda: indices.csv_name(((2, 0), (0, 0))),
            ValueError,
            "csv_name is defined for single-pair indices only",
        ),
        (
            lambda: OperatorPoly.position().divide_ihbar(),
            ValueError,
            "term without hbar cannot be divided by i*hbar",
        ),
        (lambda: weyl_symmetrize(-1, 0), ValueError, "exponents must be non-negative"),
        (lambda: weyl_symmetrize(2, -1), ValueError, "exponents must be non-negative"),
    ],
    ids=[
        "table-below-order-2",
        "leibniz-pair-counts",
        "csv-name-two-pairs",
        "divide-without-hbar",
        "negative-q-exponent",
        "negative-p-exponent",
    ],
)
def test_algebra_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call()


def test_table_n2_single_pair_contents():
    table = build_bracket_table(2, 1)
    assert len(table.entries) == 3
    assert lookup(table)(single(2, 0), single(0, 2)) == D(single(1, 1), 4)
    assert lookup(table)(single(0, 2), single(2, 0)) == D(single(1, 1), -4)
    assert lookup(table)(single(1, 1), single(1, 1)).is_zero
    for (m1, m2), entry in table.entries.items():
        assert entry == closed_form_bracket(m1, m2).truncate(2)


def test_table_n2_two_pairs_is_ten_moment_system():
    table = build_bracket_table(2, 2)
    assert len(indices.iter_indices(2, 2)) == 10
    assert len(table.entries) == 45
    x1x2 = ((1, 0), (1, 0))
    p1p2 = ((0, 1), (0, 1))
    assert lookup(table)(x1x2, p1p2) == bracket_oracle(x1x2, p1p2)


def test_table_n3_closure_under_truncation():
    """Entries only keep monomials whose hbar order fits the truncation."""
    table = build_bracket_table(3, 1)
    for poly in table.entries.values():
        for key in poly.terms:
            assert poly.hbar_order_doubled(key) <= 3
            for v, _ in key[1]:
                if v[0] == "D":
                    assert indices.order(v[1]) <= 3
    # the cubic-cubic bracket is entirely above the filter
    assert lookup(table)(single(2, 1), single(1, 2)).is_zero


def test_truncation_consistency_n3_vs_n2():
    t3 = build_bracket_table(3, 1)
    t2 = build_bracket_table(2, 1)
    for (m1, m2), poly in t2.entries.items():
        assert lookup(t3)(m1, m2).truncate(2) == poly


def test_table_resource_guard():
    with pytest.raises(MomentAlgebraError):
        build_bracket_table(40, 3)


def test_table_missing_entry_reports_moment():
    table = build_bracket_table(2, 1)
    with pytest.raises(MomentAlgebraError, match=r"Delta\(q\^3\)"):
        lookup(table)(single(3, 0), single(0, 2))


def test_poisson_bracket_basic_variables():
    table = build_bracket_table(2, 1)
    q = MomentPolynomial.q()
    p = MomentPolynomial.p()
    assert leibniz_bracket(q * q, p * p, lookup(table)) == q * p * 4
    assert leibniz_bracket(q, p, lookup(table)) == MomentPolynomial.constant(1, 1)
    assert leibniz_bracket(D(single(2, 0)), q, lookup(table)).is_zero


def test_poisson_bracket_casimir_is_central():
    table = build_bracket_table(2, 1)
    casimir = D(single(2, 0)) * D(single(0, 2)) - D(single(1, 1)) * D(single(1, 1))
    for idx in indices.iter_indices(2, 1):
        assert leibniz_bracket(casimir, D(idx), lookup(table)).is_zero
    assert leibniz_bracket(casimir, MomentPolynomial.q(), lookup(table)).is_zero


def test_poisson_bracket_antisymmetry_randomized():
    # float coefficients are carried exactly (binary rationals), so the
    # identity still holds symbolically
    table = build_bracket_table(2, 1)
    rng = random.Random(3)
    symbols = [MomentPolynomial.q(), MomentPolynomial.p()] + [
        D(idx) for idx in indices.iter_indices(2, 1)
    ]

    def random_poly():
        poly = MomentPolynomial.constant(rng.randint(-2, 2), 1)
        for _ in range(3):
            term = MomentPolynomial.constant(Fraction(rng.uniform(-2.0, 2.0)), 1)
            for _ in range(rng.randint(1, 2)):
                term = term * rng.choice(symbols)
            poly = poly + term
        return poly

    for _ in range(20):
        f, g = random_poly(), random_poly()
        assert leibniz_bracket(f, g, lookup(table)) == -leibniz_bracket(g, f, lookup(table))


def test_poisson_bracket_jacobi_exact_at_order_2():
    """Order-2 brackets close on order-2 moments, so Jacobi holds exactly."""
    table = build_bracket_table(2, 1)
    rng = random.Random(11)
    symbols = [MomentPolynomial.q(), MomentPolynomial.p()] + [
        D(idx) for idx in indices.iter_indices(2, 1)
    ]
    for _ in range(12):
        f, g, h = (rng.choice(symbols) * rng.choice(symbols) for _ in range(3))
        total = (
            leibniz_bracket(f, leibniz_bracket(g, h, lookup(table)), lookup(table))
            + leibniz_bracket(g, leibniz_bracket(h, f, lookup(table)), lookup(table))
            + leibniz_bracket(h, leibniz_bracket(f, g, lookup(table)), lookup(table))
        )
        assert total.is_zero


def test_poisson_bracket_numeric_antisymmetry():
    """Evaluated at a random state the bracket identities hold numerically."""
    table = build_bracket_table(2, 1)
    rng = random.Random(21)
    basic = {("q", 0): 0.7, ("p", 0): -0.4}
    values = {
        single(2, 0): 1.3,
        single(1, 1): 0.2,
        single(0, 2): 0.6,
    }
    f = (
        D(single(2, 0)) * MomentPolynomial.q()
        + D(single(1, 1), rng.uniform(-1, 1))
        + MomentPolynomial.p() * MomentPolynomial.p()
    )
    g = D(single(0, 2)) * D(single(2, 0)) + MomentPolynomial.q().scale(rng.uniform(-1, 1))
    fg = leibniz_bracket(f, g, lookup(table)).evaluate(1.0, basic, values)
    gf = leibniz_bracket(g, f, lookup(table)).evaluate(1.0, basic, values)
    assert abs(fg + gf) <= 1e-12 * max(abs(fg), 1.0)


def test_leibniz_bracket_with_oracle_backend():
    """The Leibniz extension over the untruncated oracle stays exact."""
    f = D(single(3, 0))
    g = D(single(0, 3))
    got = leibniz_bracket(f, g, bracket_oracle)
    assert got == bracket_oracle(single(3, 0), single(0, 3))


def test_table_json_round_trip_structure():
    table = build_bracket_table(2, 1)
    payload = json.loads(dumps_json(table.to_jsonable()))
    assert payload["truncation_order"] == 2
    assert payload["pairs"] == 1
    assert len(payload["entries"]) == 3
    entry = payload["entries"][0]
    assert {"lhs", "rhs", "validated", "terms"} <= set(entry)
    # {Delta(q^2), Delta(qp)} = 2 Delta(q^2) appears with coefficient "2"
    flat = [
        (e["lhs"], e["rhs"], t["coeff_re"], t["moments"])
        for e in payload["entries"]
        for t in e["terms"]
    ]
    assert ([[2, 0]], [[1, 1]], "2", [{"index": [[2, 0]], "power": 1}]) in flat


def test_two_pair_polynomial_names_each_variable_by_its_pair():
    """On two pairs a basic variable carries its pair's number, 1-based in
    the repr and 0-based in the JSON terms; the zero polynomial prints 0."""
    assert repr(MomentPolynomial.zero()) == repr(MomentPolynomial.zero(2)) == "0"
    poly = MomentPolynomial.q(0, 2) * MomentPolynomial.p(1, 2) ** 2 + MomentPolynomial.moment(
        ((1, 0), (0, 1)), Fraction(3, 2), 2
    )
    assert repr(poly) == "p2^2*q1 + -3/2*hbar^2*Delta(q1 p2)"
    assert json.loads(dumps_json(poly.to_json_terms())) == [
        {"coeff_re": "1", "hbar": 0, "q": {"0": 1}, "p": {"1": 2}, "moments": []},
        {"coeff_re": "-3/2", "hbar": 2, "q": {}, "p": {}, "moments": [{"index": [[1, 0], [0, 1]], "power": 1}]},
    ]


def test_lambda_powers_meet_hbar_only_in_hbar_parts():
    """A term c * lambda^h (lambda = -i hbar) is c * (-i)^h * hbar^h; the
    JSON dump and the generated code print that hbar^h coefficient, and an
    odd power, an imaginary term, is written under coeff_im and refused by
    the code generator."""
    assert [hbar_parts(h, 3) for h in range(4)] == [(3, 0), (0, -3), (-3, 0), (0, 3)]
    bracket = closed_form_bracket(single(2, 1), single(1, 2))
    assert bracket.terms[(2, ())] == Fraction(-1, 2)
    assert [t for t in bracket.to_json_terms() if t["hbar"] == 2] == [
        {"coeff_re": "1/2", "hbar": 2, "q": {}, "p": {}, "moments": []}
    ]
    # Delta(p^2) Delta(q^2) - 4 Delta(qp)^2 + 3 Delta(q^2 p^2) + hbar^2/2 at hbar 2
    field = MomentVectorField(sorted(bracket.variables()), [bracket], None, MomentPolynomial.zero())
    assert "        y0*y2 - 4.0*y1_2 + 3.0*y3 + 2.0,\n" in field.source(2.0)
    odd = MomentPolynomial.constant(Fraction(1, 2), 1, hbar_power=1)
    with pytest.raises(ValueError, match="complex"):
        MomentVectorField([], [odd], None, odd).source(1.0)
    assert odd.to_json_terms() == [
        {"coeff_re": "0", "coeff_im": "-1/2", "hbar": 1, "q": {}, "p": {}, "moments": []}
    ]
