"""Reference Hodge kernels for the oracle tests in ``test_hodge_oracle.py``.

These are the ``Fraction``-arithmetic versions of the row reduction
behind ``linalg.rref``, ``linalg.kernel`` and ``linalg.solve``, of
``linalg.mul``, ``linalg.is_positive_definite``, of composing and summing
maps (``graded.compose`` and ``graded.add``) and of
``hodge.build_transfer_data`` as ``bvhy`` built it before its kernels
eliminated and accumulated in integers over common denominators: the
Laplacian L = d d* + d* d, the harmonic classes as the kernel of L, the
Green block as ``(L + P)^-1 - P`` and ``h = d* G``.  The library forms no
Laplacian or Green block, so this is an independent construction of the
same values.  ``check_side_conditions``,
``check_differentials`` and ``check_strong_trivialization_composites``
compose and sum whole sparse maps with ``compose`` and ``add``, which share
no code with the library's block residuals.  Every entry is combined as a
``Fraction``; the library must return the same exact values.  ``rank`` is
the test suite's rank oracle.
"""

from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from bvhy.graded import Bidegree, BigradedSpace, GradedMap
from bvhy.hodge import InnerProduct
from bvhy.reporting import CheckReport

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch in product")
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j] != 0:
                    oi[j] += aik * bk[j]
    return out


def rref(a):
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def kernel_basis(a):
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(a):
    n = len(a)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def is_positive_definite(a) -> bool:
    """Exact test via LDL pivots: symmetric and all pivots positive."""
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i + 1, n)):
        return False
    m = [row[:] for row in a]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


def to_matrix(b):
    """The ``Fraction`` matrix of a ``linalg.Block``."""
    rows, den = b
    return [[Fraction(x, den) for x in row] for row in rows]


def dense_block(m: GradedMap, deg):
    """Dense ``Fraction`` block of ``m`` at source bidegree ``deg`` (rows:
    target names at deg+shift, cols: source names at deg), plus the two
    name lists."""
    deg = Bidegree(*deg)
    src_names = m.source.names_at(deg)
    tgt_names = m.target.names_at(deg + m.shift)
    cols = [m.entries.get(s, {}) for s in src_names]
    return ([[col.get(t, ZERO) for col in cols] for t in tgt_names],
            src_names, tgt_names)


def compose(f: GradedMap, g: GradedMap) -> GradedMap:
    """f after g, accumulated entry by entry in Fractions."""
    if g.target.names != f.source.names:
        raise ValueError("space mismatch in composition")
    out = GradedMap(g.source, f.target, g.shift + f.shift)
    for src, col in g.entries.items():
        acc: Dict[str, Fraction] = {}
        for mid, c in col.items():
            for tgt, v in f.entries.get(mid, {}).items():
                acc[tgt] = acc.get(tgt, ZERO) + c * v
        for tgt, v in acc.items():
            if v != 0:
                out.entries.setdefault(src, {})[tgt] = v
    return out


def add(*maps: GradedMap) -> GradedMap:
    """The sum of maps of one shift, entry by entry in Fractions."""
    first = maps[0]
    out: Dict[str, Dict[str, Fraction]] = {}
    for m in maps:
        if m.shift != first.shift:
            raise ValueError("cannot add maps of different shifts")
        for src, col in m.entries.items():
            acc = out.setdefault(src, {})
            for tgt, v in col.items():
                acc[tgt] = acc.get(tgt, ZERO) + v
    return GradedMap(first.source, first.target, first.shift, out)


class TransferData(NamedTuple):
    """The reference transfer data, with the fields of ``hodge.TransferData``
    that the oracle tests read."""
    cohomology: BigradedSpace
    iota: GradedMap
    pi: GradedMap
    h: GradedMap
    green: GradedMap


def adjoint_differential(a, ip):
    space = a.space
    dstar = GradedMap.zero(space, space, Bidegree(0, -1))
    for deg in space.occupied_bidegrees():
        block, src_names, tgt_names = dense_block(a.d, deg)
        if not src_names or not tgt_names:
            continue
        g_low = to_matrix(ip.block(deg))
        g_high = to_matrix(ip.block(deg + Bidegree(0, 1)))
        m = mat_mul(inverse(g_low), mat_mul(transpose(block), g_high))
        for j, src in enumerate(tgt_names):
            for i, tgt in enumerate(src_names):
                dstar.set_entry(src, tgt, m[i][j])
    return dstar


def _harmonic_name(names, vec, deg, idx):
    support = [i for i, c in enumerate(vec) if c != 0]
    if len(support) == 1 and vec[support[0]] == 1:
        return f"[{names[support[0]]}]"
    return f"h({deg.p},{deg.q})#{idx}"


def _harmonic_decomposition(a, ip):
    space = a.space
    dstar = adjoint_differential(a, ip)
    lap = add(compose(a.d, dstar), compose(dstar, a.d))
    green = GradedMap.zero(space, space, Bidegree(0, 0))
    harmonic: Dict[Bidegree, List[Tuple[str, List[Fraction]]]] = {}
    for deg in space.occupied_bidegrees():
        names = space.names_at(deg)
        n = len(names)
        lblock, _, _ = dense_block(lap, deg)
        kern = kernel_basis(lblock)
        harmonic[deg] = [(_harmonic_name(names, vec, deg, i), vec)
                         for i, vec in enumerate(kern)]
        g = to_matrix(ip.block(deg))
        if kern:
            k = transpose(kern)
            ktg = mat_mul(transpose(k), g)
            gram = mat_mul(ktg, k)
            proj = mat_mul(k, mat_mul(inverse(gram), ktg))
        else:
            proj = zeros(n, n)
        lp = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(lblock, proj)]
        gblock = [[x - y for x, y in zip(ra, rb)]
                  for ra, rb in zip(inverse(lp), proj)]
        for j, src in enumerate(names):
            for i, tgt in enumerate(names):
                green.set_entry(src, tgt, gblock[i][j])
    return harmonic, green


def build_transfer_data(a, ip=None) -> TransferData:
    space = a.space
    if ip is None:
        ip = InnerProduct(space)
    dstar = adjoint_differential(a, ip)
    harmonic, green = _harmonic_decomposition(a, ip)
    cohomology = BigradedSpace([(label, deg)
                                for deg in space.occupied_bidegrees()
                                for label, _vec in harmonic[deg]])
    iota = GradedMap.zero(cohomology, space, Bidegree(0, 0))
    pi = GradedMap.zero(space, cohomology, Bidegree(0, 0))
    for deg in space.occupied_bidegrees():
        names = space.names_at(deg)
        cols = harmonic[deg]
        if not cols:
            continue
        for label, vec in cols:
            for i, c in enumerate(vec):
                if c != 0:
                    iota.set_entry(label, names[i], c)
        k = transpose([vec for _l, vec in cols])
        ktg = mat_mul(transpose(k), to_matrix(ip.block(deg)))
        gram = mat_mul(ktg, k)
        pmat = mat_mul(inverse(gram), ktg)
        for j, src in enumerate(names):
            for i, (label, _v) in enumerate(cols):
                pi.set_entry(src, label, pmat[i][j])
    return TransferData(cohomology, iota, pi, compose(dstar, green), green)


def identity_map(space: BigradedSpace, c: Fraction) -> GradedMap:
    """``c`` times the identity of ``space``."""
    return GradedMap(space, space, Bidegree(0, 0),
                     {n: {n: c} for n in space.names})


def check_side_conditions(td: TransferData, a) -> CheckReport:
    """The two retract identities and the three side conditions, on whole
    composed maps."""
    report = CheckReport("side-conditions")
    report.add_zero("pi iota = id", add(compose(td.pi, td.iota),
                                        identity_map(td.cohomology, -ONE)))
    report.add_zero("d h + h d = id - iota pi", add(
        compose(a.d, td.h), compose(td.h, a.d), identity_map(a.space, -ONE),
        compose(td.iota, td.pi)))
    report.add_zero("h iota = 0", compose(td.h, td.iota))
    report.add_zero("h h = 0", compose(td.h, td.h))
    report.add_zero("pi h = 0", compose(td.pi, td.h))
    return report


def check_differentials(a) -> CheckReport:
    """The three zero-map items of ``check_bv_axioms``."""
    report = CheckReport("bv-axioms")
    report.add_zero("d^2 = 0", compose(a.d, a.d))
    report.add_zero("delta^2 = 0", compose(a.delta, a.delta))
    report.add_zero("d delta + delta d = 0",
                    add(compose(a.d, a.delta), compose(a.delta, a.d)))
    return report


def check_strong_trivialization_composites(td: TransferData, a) -> CheckReport:
    """The three trivialization composites, on whole composed maps."""
    report = CheckReport("strong-trivialization")
    report.add_zero("delta iota = 0", compose(a.delta, td.iota))
    report.add_zero("pi delta = 0", compose(td.pi, a.delta))
    report.add_zero("h delta h = 0", compose(compose(td.h, a.delta), td.h))
    return report
