"""Seeded input documents for the four benchmark workloads.

Every document is derived from the workload seed alone: the same seed gives
byte-identical documents.  Within a workload the sizes are fixed and the
seed varies only coefficients, block layouts and which entry a mutation
touches, so that two seeds cost about the same to process.

Families:

* exterior algebras on odd generators with seeded monomial rescalings
  (non-integer product constants);
* Chevalley-Eilenberg algebras of nilpotent Lie algebras (Heisenberg,
  filiform L_n) with generators at (0,1), ``d`` of shift (0,1), ``delta = 0``
  and seeded generator rescalings (non-integer structure constants);
* two-term chain complexes with a seeded integer ``d`` and a non-identity
  tridiagonal Gram form;
* exports of the public model builders and of ``search_nonformal``;
* single-entry mutations of valid documents, each built to break one
  named item of the BV-axiom report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from bvhy import bv, hodge, models, serialize

WORKLOADS = ("validate-axioms", "validate-hodge", "transfer-collapse",
             "transfer-massey")
TRANSFER_ARITY = 5

ASSOC = "associativity"
DERIVATION = "d is a derivation of the product"

_SCALES = [Fraction(n, m) for n in (1, 2, 3, 5) for m in (1, 2, 3, 4)
           if Fraction(n, m) != 1]


@dataclass
class Doc:
    """One input document and what the program must say about it."""

    name: str
    command: str                 # "validate" or "transfer"
    algebra: dict                # the algebra JSON document
    valid: bool = True
    breaks: Optional[str] = None  # check item a mutation was built to break


def _scale(rng: random.Random) -> Fraction:
    return rng.choice(_SCALES) * rng.choice((1, -1))


def _sort_sign(word: Sequence[int]) -> int:
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                     if word[i] > word[j])
    return -1 if inversions % 2 else 1


def exterior_doc(degrees: Sequence[Tuple[int, int]],
                 d_gens: Optional[Dict[int, List[Tuple[Fraction, int, int]]]] = None,
                 scale: Optional[Dict[Tuple[int, ...], Fraction]] = None) -> dict:
    """Exterior algebra on odd generators ``degrees[i]`` as an algebra document.

    ``d_gens[k]`` lists terms ``(c, i, j)`` of ``d(g_k) = sum c g_i g_j``;
    ``d`` is extended as a derivation.  The basis element of a monomial ``S``
    is ``scale[S] * g_S`` (unit scale 1), which rescales the constants
    without changing the isomorphism type.
    """
    n = len(degrees)
    d_gens = d_gens or {}
    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    scale = scale or {}
    mu = {s: scale.get(s, Fraction(1)) for s in subsets}
    mu[()] = Fraction(1)

    def name(s):
        return "e" + "".join(str(i + 1) for i in s)

    basis = [{"name": name(s), "p": sum(degrees[i][0] for i in s),
              "q": sum(degrees[i][1] for i in s)} for s in subsets]
    product = []
    for s in subsets:
        for t in subsets:
            if set(s) & set(t):
                continue
            u = tuple(sorted(s + t))
            c = _sort_sign(s + t) * mu[s] * mu[t] / mu[u]
            product.append([name(s), name(t), name(u), str(c)])
    d = []
    for s in subsets:
        image: Dict[Tuple[int, ...], Fraction] = {}
        for m, k in enumerate(s):
            for c, i, j in d_gens.get(k, ()):
                word = s[:m] + (i, j) + s[m + 1:]
                if len(set(word)) < len(word):
                    continue
                u = tuple(sorted(word))
                # d passes the m odd generators to the left of g_k
                sign = (-1) ** m * _sort_sign(word)
                image[u] = image.get(u, Fraction(0)) + sign * c
        for u, c in sorted(image.items()):
            if c:
                d.append([name(s), name(u), str(c * mu[s] / mu[u])])
    return {"schema": serialize.SCHEMA_VERSION, "basis": basis, "unit": "e",
            "d": d, "delta": [], "product": sorted(product)}


def scaled_exterior(n: int, rng: random.Random) -> dict:
    """Exterior algebra on n generators at (1,0), every monomial rescaled."""
    scale = {s: _scale(rng) for r in range(1, n + 1)
             for s in itertools.combinations(range(n), r)}
    return exterior_doc([(1, 0)] * n, scale=scale)


def nilpotent_ce(kind: str, n: int, rng: random.Random) -> dict:
    """Chevalley-Eilenberg algebra of a nilpotent Lie algebra.

    Heisenberg (n = 3): d g3 = c g1 g2.  Filiform L_n: d g_k = c_k g1 g_{k-1}
    for k = 3..n.  Rescaling the generators by seeded rationals l_i makes
    c_k = l_k / (l_1 l_{k-1}); any nonzero c_k keeps d^2 = 0.
    """
    lam = [_scale(rng) for _ in range(n)]
    if kind == "heisenberg":
        d_gens = {2: [(lam[2] / (lam[0] * lam[1]), 0, 1)]}
    else:
        d_gens = {k: [(lam[k] / (lam[0] * lam[k - 1]), 0, k - 1)]
                  for k in range(2, n)}
    return exterior_doc([(0, 1)] * n, d_gens=d_gens)


def chain_complex(n: int, nblocks: int, rng: random.Random) -> dict:
    """Unit plus n elements at (1,0) and n at (1,1); products with the unit
    only; d is an integer map of rank about n/2 made of ``nblocks`` uneven
    blocks; the Gram form is tridiagonal with diagonal 2-4, off-diagonal 1.

    Block shapes follow from (n, nblocks); the seed picks the entries, the
    rows and columns each block occupies, and the Gram diagonal.  Seeded
    shapes made the Hodge cost of a document vary by 20-35%."""
    rank = n // 2
    # uneven ranks, e.g. 10 -> [10], [7, 3], [5, 3, 2]
    ranks = {1: [rank], 2: [rank - rank // 3, rank // 3],
             3: [rank - rank // 3 - rank // 5, rank // 3, rank // 5]}[nblocks]
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    entries: Dict[Tuple[int, int], int] = {}
    extra = (n - rank) // nblocks
    for r in ranks:
        # rank at most r: an (r + extra) x r factor times an r x (r + extra) one
        brows, rows = rows[:r + extra], rows[r + extra:]
        bcols, cols = cols[:r + extra], cols[r + extra:]
        u = [[rng.randint(-3, 3) for _ in range(r)] for _ in brows]
        v = [[rng.randint(-3, 3) for _ in bcols] for _ in range(r)]
        for i in range(r):
            u[i][i] = rng.choice((1, 2, -1))
            v[i][i] = rng.choice((1, -1, 3))
        for a, row in zip(brows, u):
            for b_idx, col in enumerate(bcols):
                val = sum(row[t] * v[t][b_idx] for t in range(r))
                if val:
                    entries[(col, a)] = val
    names_a = [f"a{i + 1:02d}" for i in range(n)]
    names_b = [f"b{i + 1:02d}" for i in range(n)]
    basis = [{"name": "e", "p": 0, "q": 0}]
    basis += [{"name": x, "p": 1, "q": 0} for x in names_a]
    basis += [{"name": x, "p": 1, "q": 1} for x in names_b]
    product = [["e", b["name"], b["name"], "1"] for b in basis]
    product += [[b["name"], "e", b["name"], "1"] for b in basis[1:]]
    d = [[names_a[src], names_b[tgt], str(v)]
         for (src, tgt), v in sorted(entries.items())]
    gram = []
    for names in (names_a, names_b):
        for i, x in enumerate(names):
            gram.append([x, x, str(rng.randint(2, 4))])
            if i + 1 < n:
                gram.append([x, names[i + 1], "1"])
    return {"schema": serialize.SCHEMA_VERSION, "basis": basis, "unit": "e",
            "d": d, "delta": [], "product": sorted(product), "gram": gram}


def model_export(model) -> dict:
    return serialize.algebra_to_json(model.algebra, model.inner_product)


def mutate_product(doc: dict, rng: random.Random) -> dict:
    """Scale one product entry and its mirror by the same factor.

    The pair (x, y) is chosen so that some non-unit z has (xy)z != 0; then
    (xy)z picks up the factor while x(yz) does not, so associativity
    breaks while graded commutativity still holds."""
    unit = doc["unit"]
    left = {x for x, y, _t, _v in doc["product"] if unit not in (x, y)}
    pairs = sorted({tuple(sorted((x, y))) for x, y, t, _v in doc["product"]
                    if unit not in (x, y) and x != y and t in left})
    x, y = rng.choice(pairs)
    factor = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 3)))
    return dict(doc, product=[
        [a, b, t, str(Fraction(v) * factor) if {a, b} == {x, y} else v]
        for a, b, t, v in doc["product"]])


def mutate_d(doc: dict, rng: random.Random) -> dict:
    """Scale one d entry whose source is a product of two non-unit basis
    elements; the derivation rule then fails on that factorisation."""
    unit = doc["unit"]
    decomposable = {t for x, y, t, _v in doc["product"] if unit not in (x, y)}
    idx = rng.choice([i for i, (s, _t, _v) in enumerate(doc["d"])
                      if s in decomposable])
    d = [list(row) for row in doc["d"]]
    d[idx][2] = str(Fraction(d[idx][2]) * 2)
    return dict(doc, d=d)


def generate(workload: str, seed: int) -> List[Doc]:
    """The workload's documents for ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    docs: List[Doc] = []
    if workload == "validate-axioms":
        # all 64-dimensional with 729 product entries, so op costs cluster
        fil6 = nilpotent_ce("filiform", 6, rng)
        valid = {
            "ext6a": scaled_exterior(6, rng),
            "ext6b": scaled_exterior(6, rng),
            "ext6c": scaled_exterior(6, rng),
            "torus(3,0)": model_export(models.build_torus_model(3, 0)),
            "filiform6": fil6,
            "filiform6b": nilpotent_ce("filiform", 6, rng),
        }
        docs = [Doc(n, "validate", a) for n, a in valid.items()]
        base = rng.choice(sorted(valid))
        docs.append(Doc(f"{base}~product", "validate",
                        mutate_product(valid[base], rng), False, ASSOC))
        docs.append(Doc("filiform6~d", "validate", mutate_d(fil6, rng),
                        False, DERIVATION))
    elif workload == "validate-hodge":
        # sizes and block counts are fixed per slot, so that the seed moves
        # only entries and layouts and every seed costs about the same
        for n, nblocks in ((19, 1), (19, 2), (20, 3), (20, 1), (21, 2), (21, 3)):
            docs.append(Doc(f"complex{n}x{nblocks}", "validate",
                            chain_complex(n, nblocks, rng)))
    elif workload == "transfer-collapse":
        exports = [models.build_trivial_model(1), models.build_trivial_model(3),
                   models.build_trivial_model(4), models.build_torus_model(1, 0),
                   models.build_torus_model(1, 1), models.build_torus_model(2, 0),
                   models.build_skew_gram_model()]
        # fixed search seeds: the search's cost varies 10x with the seed,
        # which would make setup_s depend on the workload seed
        exports += [models.search_nonformal(seed=s) for s in (0, 1)]
        docs = [Doc(m.name, "transfer", model_export(m)) for m in exports]
    elif workload == "transfer-massey":
        # four L_4 copies keep the median and the tail inside one cost
        # cluster; L_5 (3-4x slower) adds the richest table once per round
        for kind, n in (("heisenberg", 3),) + (("filiform", 4),) * 4 \
                + (("filiform", 5),):
            docs.append(Doc(f"{kind}{n}-{len(docs)}", "transfer",
                            nilpotent_ce(kind, n, rng)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(docs)
    return docs


def self_check(docs: List[Doc]) -> List[str]:
    """Valid documents pass the BV axioms and the side conditions; each
    mutated document fails the item it was built to break."""
    errors = []
    for doc in docs:
        algebra, gram = serialize.algebra_from_json(doc.algebra)
        axioms = bv.check_bv_axioms(algebra)
        failing = [item.name for item in axioms.failures()]
        if not doc.valid:
            if doc.breaks not in failing:
                errors.append(f"{doc.name}: {doc.breaks!r} not broken; {failing}")
        elif failing:
            errors.append(f"{doc.name}: axioms fail {failing}")
        elif not hodge.check_side_conditions(
                hodge.build_transfer_data(algebra, gram), algebra).passed:
            errors.append(f"{doc.name}: side conditions fail")
    return errors
