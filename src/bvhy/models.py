"""Desk-scale built-in algebras, footprints, and the non-formality search.

The torus-style models transplant the operator shapes of the geometric
example (diagonal differential with integer eigenvalues, odd divergence
operator, square-zero product on nonconstant modes) into a small exact
setting.  They are not Calabi-Yau varieties; the formality statement is
exercised through the symbolic certificate on footprints instead, and the
torus models exercise the transfer machinery and the top/bottom degree
mechanisms.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .bv import BVAlgebra
from .certify import Footprint
from .engine import build_operation_table, naive_evaluate_tree
from .graded import Bidegree, BigradedSpace, GradedMap
from .hodge import InnerProduct, TransferData, build_transfer_data, \
    check_transfer_input
from .trees import enumerate_trees

SEARCH_ATTEMPTS = 64


class SearchExhausted(RuntimeError):
    """Raised when the non-formality search runs out of candidates."""


@dataclass
class ModelDescriptor:
    name: str
    algebra: BVAlgebra
    inner_product: Optional[InnerProduct] = None
    n: Optional[int] = None     # dimension for footprint / top-degree use
    witness: Optional[Dict] = None
    _td: Optional[TransferData] = None

    def transfer_data(self) -> TransferData:
        if self._td is None:
            self._td = build_transfer_data(self.algebra, self.inner_product)
        return self._td

    def footprint(self) -> Footprint:
        if self.n is None:
            raise ValueError(f"model {self.name} has no declared dimension")
        H = self.transfer_data().cohomology
        occupied = {deg: len(H.names_at(deg)) for deg in H.occupied_bidegrees()}
        return Footprint(self.n, occupied)


def _merge_sign(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Parity sign of merging two ascending odd-generator words."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


def _subset_name(s: Tuple[int, ...]) -> str:
    return "".join(str(i) for i in s)


def build_trivial_model(generators: int) -> ModelDescriptor:
    """Exterior algebra on odd generators at (1,0); d = 0, delta = 0."""
    if generators < 1:
        raise ValueError("need at least one generator")
    gens = tuple(range(1, generators + 1))
    subsets = []
    for r in range(generators + 1):
        subsets.extend(itertools.combinations(gens, r))
    basis = [(f"x{_subset_name(s)}", Bidegree(len(s), 0)) for s in subsets]
    space = BigradedSpace(basis)
    product = {}
    for s in subsets:
        for t in subsets:
            if set(s) & set(t):
                continue
            merged = tuple(sorted(s + t))
            sign = _merge_sign(s, t)
            product[(f"x{_subset_name(s)}", f"x{_subset_name(t)}")] = \
                {f"x{_subset_name(merged)}": Fraction(sign)}
    zero = GradedMap.zero(space, space, Bidegree(0, 1))
    zero_delta = GradedMap.zero(space, space, Bidegree(-1, 0))
    algebra = BVAlgebra(space, zero, zero_delta, product, "x")
    return ModelDescriptor(f"trivial({generators})", algebra)


def _torus_name(m: Tuple[int, ...], I: Tuple[int, ...], J: Tuple[int, ...]) -> str:
    return f"m{','.join(map(str, m))}|f{_subset_name(I)}|v{_subset_name(J)}"


def build_torus_model(n: int, mode_cutoff: int) -> ModelDescriptor:
    """Bigraded BV-algebra with torus-shaped operators.

    Basis elements are (mode, form part, polyvector part) triples
    ``w_m dzbar_I dv_J`` with m in [-cutoff, cutoff]^n.  The differential
    wedges a dzbar with eigenvalue m_j, the BV operator contracts a dv
    with eigenvalue m_j, and products of two nonconstant modes vanish
    (square-zero truncation keeps everything exactly associative).
    """
    if not 1 <= n <= 3:
        raise ValueError("n must be in [1, 3]")
    if not 0 <= mode_cutoff <= 1:
        raise ValueError("mode_cutoff must be in [0, 1]")
    coords = tuple(range(1, n + 1))
    modes = list(itertools.product(range(-mode_cutoff, mode_cutoff + 1), repeat=n))
    subsets = []
    for r in range(n + 1):
        subsets.extend(itertools.combinations(coords, r))

    basis = []
    for m in modes:
        for I in subsets:
            for J in subsets:
                basis.append((_torus_name(m, I, J), Bidegree(len(J), len(I))))
    space = BigradedSpace(basis)
    zero_mode = (0,) * n

    d = GradedMap.zero(space, space, Bidegree(0, 1))
    delta = GradedMap.zero(space, space, Bidegree(-1, 0))
    for m in modes:
        for I in subsets:
            for J in subsets:
                src = _torus_name(m, I, J)
                for j in coords:
                    if m[j - 1] == 0:
                        continue
                    if j not in I:
                        # d inserts dzbar_j at the front of the word
                        before = sum(1 for i in I if i < j)
                        sign = -1 if before % 2 else 1
                        tgt = _torus_name(m, tuple(sorted(I + (j,))), J)
                        d.set_entry(src, tgt, Fraction(m[j - 1] * sign))
                    if j in J:
                        # delta contracts dv_j; the contraction passes the
                        # form letters and the earlier polyvector letters
                        idx = J.index(j)
                        sign = -1 if (len(I) + idx) % 2 else 1
                        tgt = _torus_name(m, I, tuple(x for x in J if x != j))
                        delta.set_entry(src, tgt, Fraction(m[j - 1] * sign))

    product = {}
    for m1, m2 in itertools.product(modes, repeat=2):
        if m1 != zero_mode and m2 != zero_mode:
            continue
        msum = tuple(x + y for x, y in zip(m1, m2))
        for I1, J1 in itertools.product(subsets, repeat=2):
            for I2, J2 in itertools.product(subsets, repeat=2):
                if set(I1) & set(I2) or set(J1) & set(J2):
                    continue
                # move the second form block past the first polyvector block
                sign = -1 if (len(J1) * len(I2)) % 2 else 1
                sign *= _merge_sign(I1, I2) * _merge_sign(J1, J2)
                src = (_torus_name(m1, I1, J1), _torus_name(m2, I2, J2))
                tgt = _torus_name(msum, tuple(sorted(I1 + I2)),
                                  tuple(sorted(J1 + J2)))
                product[src] = {tgt: Fraction(sign)}

    unit = _torus_name(zero_mode, (), ())
    algebra = BVAlgebra(space, d, delta, product, unit)
    return ModelDescriptor(f"torus({n},{mode_cutoff})", algebra, n=n)


def build_skew_gram_model() -> ModelDescriptor:
    """Two-step complex with a non-identity Gram matrix.

    Regression model: the transfer identities must hold in a basis where
    the inner product has off-diagonal entries.
    """
    basis = [("e", Bidegree(0, 0)),
             ("x1", Bidegree(1, 0)), ("x2", Bidegree(1, 0)),
             ("y1", Bidegree(1, 1)), ("y2", Bidegree(1, 1))]
    space = BigradedSpace(basis)
    d = GradedMap.zero(space, space, Bidegree(0, 1))
    d.set_entry("x1", "y1", Fraction(1))
    d.set_entry("x2", "y1", Fraction(1))
    d.set_entry("x2", "y2", Fraction(1))
    delta = GradedMap.zero(space, space, Bidegree(-1, 0))
    product = {("e", name): {name: Fraction(1)} for name in space.names}
    algebra = BVAlgebra(space, d, delta, product, "e")
    gram = InnerProduct(space, {
        Bidegree(1, 0): [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]],
        Bidegree(1, 1): [[Fraction(3), Fraction(1)], [Fraction(1), Fraction(2)]],
    })
    return ModelDescriptor("skew-gram", algebra, inner_product=gram)


_COEFF_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
               Fraction(-2), Fraction(1, 2), Fraction(3), Fraction(-1, 3)]


def _witness_candidate(alpha: Fraction, beta: Fraction, gamma: Fraction) -> BVAlgebra:
    """Massey-style seven-dimensional candidate: d s = gamma a b, and the
    product s c reaches a harmonic element, so the arity-3 higher
    operation picks up pi((h(ab)) c) != 0 when all coefficients are set."""
    basis = [("e", Bidegree(0, 0)),
             ("a", Bidegree(1, 0)), ("b", Bidegree(1, 0)), ("c", Bidegree(1, 0)),
             ("p", Bidegree(2, 0)), ("s", Bidegree(2, -1)), ("w", Bidegree(3, -1))]
    space = BigradedSpace(basis)
    d = GradedMap.zero(space, space, Bidegree(0, 1))
    if gamma != 0:
        d.set_entry("s", "p", gamma)
    delta = GradedMap.zero(space, space, Bidegree(-1, 0))
    product = {("e", name): {name: Fraction(1)} for name in space.names}
    if alpha != 0:
        product[("a", "b")] = {"p": alpha}
    if beta != 0:
        product[("s", "c")] = {"w": beta}
    return BVAlgebra(space, d, delta, product, "e")


def search_nonformal(seed: int = 0) -> ModelDescriptor:
    """Randomized search for a model whose arity-3 higher operation is
    nonzero; the witness constant is re-verified by the naive evaluator.
    Deterministic for a fixed seed."""
    rng = random.Random(seed)
    for attempt in range(SEARCH_ATTEMPTS):
        alpha, beta, gamma = (rng.choice(_COEFF_POOL) for _ in range(3))
        algebra = _witness_candidate(alpha, beta, gamma)
        td, reports = check_transfer_input(algebra)
        if not all(r.passed for r in reports):
            continue
        # the table keeps nonzero columns only: any entry is a witness
        constants = build_operation_table(algebra, td, 3).ops[(3, 0)]
        if not constants:
            continue
        key, col = min(constants.items())
        # independent confirmation, bypassing tables and canonical forms
        H = td.cohomology
        args = [H.basis_element(nm) for nm in key]
        total = H.zero()
        for t in enumerate_trees(3, constraints={"bracket_count": 0}):
            total = total + naive_evaluate_tree(t, algebra, td, args)
        if total.is_zero or total.coeffs != col:
            raise SearchExhausted(
                f"witness at seed {seed} failed independent re-verification")
        return ModelDescriptor(
            name=f"nonformal-witness(seed={seed})", algebra=algebra,
            witness={"arity": 3, "brackets": 0, "inputs": list(key),
                     "output": {nm: str(v) for nm, v in sorted(col.items())},
                     "attempt": attempt})
    raise SearchExhausted(
        f"no witness found for seed {seed} within {SEARCH_ATTEMPTS} attempts")


@dataclass
class NamedFootprint:
    name: str
    footprint: Footprint
    expected_hypersurface: bool
    expected_formal: bool


def _hypersurface_pattern(n: int, diag: List[int], anti: List[int]) -> Footprint:
    occupied = {}
    for j, dim in enumerate(diag):
        occupied[Bidegree(j, j)] = occupied.get(Bidegree(j, j), 0) + dim
    for i, dim in enumerate(anti):
        deg = Bidegree(i, n - i)
        occupied[deg] = occupied.get(deg, 0) + dim
    return Footprint(n, occupied)


def builtin_footprints() -> List[NamedFootprint]:
    """Reference bidegree patterns, in polyvector convention."""
    k3 = _hypersurface_pattern(2, [1, 20, 1], [1, 0, 1])
    quintic = _hypersurface_pattern(3, [1, 1, 1, 1], [1, 101, 101, 1])
    hyper4 = _hypersurface_pattern(4, [1, 1, 1, 1, 1], [1, 426, 1752, 426, 1])
    bad4 = _hypersurface_pattern(4, [1, 1, 1, 1, 1], [1, 426, 1752, 426, 1])
    bad4.occupied[Bidegree(1, 2)] = 1
    hyper5 = _hypersurface_pattern(5, [1, 1, 1, 1, 1, 1],
                                   [1, 426, 1667, 1667, 426, 1])
    return [
        NamedFootprint("k3", k3, True, True),
        NamedFootprint("quintic", quintic, True, True),
        NamedFootprint("hypersurface-4", hyper4, True, True),
        NamedFootprint("violating-4", bad4, False, False),
        NamedFootprint("hypersurface-5", hyper5, True, False),
    ]


@lru_cache(maxsize=None)
def builtin_models() -> Tuple[ModelDescriptor, ...]:
    return (
        build_trivial_model(1),
        build_trivial_model(3),
        build_torus_model(1, 0),
        build_torus_model(1, 1),
        build_torus_model(2, 1),
        build_skew_gram_model(),
    )


def torus_models() -> List[ModelDescriptor]:
    return [m for m in builtin_models() if m.name.startswith("torus")]
