"""Moment multi-indices.

A moment index identifies the Weyl-ordered central moment Delta(q^a p^b)
(one exponent pair per canonical degree of freedom).  Indices are plain
tuples ``((a1, b1), (a2, b2), ...)`` so they can be used as dict keys.
"""

from __future__ import annotations


MomentIndex = tuple  # tuple[tuple[int, int], ...]


def single(a: int, b: int) -> MomentIndex:
    """Index for a one-pair moment Delta(q^a p^b)."""
    return ((a, b),)


def order(idx: MomentIndex) -> int:
    """Total order a1+b1+a2+b2+..., the moment's degree."""
    return sum(a + b for a, b in idx)


def sort_key(idx: MomentIndex):
    # q-major lexicographic order within each total order; for one pair this
    # yields q2, qp, p2, then q3, q2p, qp2, p3, ...
    flat = tuple(x for a, b in idx for x in (-a, b))
    return (order(idx), flat)


def iter_indices(max_order: int, npairs: int = 1, min_order: int = 2) -> list:
    """All moment indices with min_order <= total order <= max_order, sorted."""
    out = []
    slots = 2 * npairs
    for total in range(min_order, max_order + 1):
        for combo in _compositions(total, slots):
            idx = tuple((combo[2 * i], combo[2 * i + 1]) for i in range(npairs))
            out.append(idx)
    out.sort(key=sort_key)
    return out


def state_layout(max_order: int) -> tuple:
    """Slots of the one-pair state vector: q, p, then every moment of order
    2..max_order in sort order."""
    return (("q", 0), ("p", 0)) + tuple(("D", idx) for idx in iter_indices(max_order, 1))


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def csv_name(idx: MomentIndex) -> str:
    """Column name for a one-pair moment: Delta_q2, Delta_qp, Delta_p2, ..."""
    if len(idx) != 1:
        raise ValueError("csv_name is defined for single-pair indices only")
    a, b = idx[0]
    part = ""
    if a:
        part += "q" if a == 1 else f"q{a}"
    if b:
        part += "p" if b == 1 else f"p{b}"
    return "Delta_" + part


def pretty(idx: MomentIndex) -> str:
    """Human-readable form, e.g. Delta(q^2 p) or Delta(q1 p2^2)."""
    bits = []
    for i, (a, b) in enumerate(idx, start=1):
        tag = "" if len(idx) == 1 else str(i)
        if a:
            bits.append(f"q{tag}" if a == 1 else f"q{tag}^{a}")
        if b:
            bits.append(f"p{tag}" if b == 1 else f"p{tag}^{b}")
    return "Delta(%s)" % " ".join(bits)

