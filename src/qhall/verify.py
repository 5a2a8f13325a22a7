"""Named verification suites over a session datum.

Each check returns pass/fail/skip, and a check that raises is reported
as an error; a suite is a deterministic list of checks.  The acceptance
test module drives the same registry at the documented bounds, and the
CLI exposes it through the verify subcommand with exit code 0 exactly
when nothing fails or errs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

from . import double as dbl
from . import falgebra as fa
from . import hall
from . import symmetries as sym
from . import ualgebra as ua
from .cartan import (
    CartanDatum,
    add_vec,
    dims_of_height,
    dims_upto,
    height,
    is_sink,
    is_source,
    kostant_count,
    load_datum,
    positive_roots,
    sigma_E,
    sigma_i,
)
from .freealg import FreeElement, lusztig_form, words_of_weight
from .lincomb import merge
from .ratfunc import MINUS_ONE, ONE, ZERO, v_pow


@dataclass
class Session:
    datum: CartanDatum
    budget: int = hall.DEFAULT_BUDGET
    weight_bound: int = 4
    hopf_degree: int = 3
    ttilde_degree: int = 3
    serre_context_bound: int = 5
    hall_bound: tuple | None = None
    hall_qs: tuple = (2, 3, 4)

    def hall_dims(self) -> tuple:
        if self.hall_bound is not None:
            return self.hall_bound
        rank = self.datum.rank
        return tuple(2 if k < 2 else 1 for k in range(rank))


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skip | error
    millis: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status not in ("fail", "error")


def _run(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        outcome = fn()
    except hall.BudgetExceeded as e:
        outcome = ("skip", str(e))
    except Exception as e:
        # one broken check must not take the rest of the suite down
        outcome = ("error", f"{type(e).__name__}: {e}")
    millis = int((time.perf_counter() - start) * 1000)
    if outcome is True or outcome is None:
        return CheckResult(name, "pass", millis)
    if outcome is False:
        return CheckResult(name, "fail", millis)
    status, detail = outcome
    return CheckResult(name, status, millis, detail)


def _weights_upto(datum: CartanDatum, bound: int):
    for total in range(bound + 1):
        yield from dims_of_height(datum.rank, total)


def _basis_elements(datum: CartanDatum, nu: tuple):
    for w in fa.weight_basis(datum, nu).basis_words:
        yield fa.FElement(datum, {w: ONE})


# ---------------------------------------------------------------------------
# suite: the quotient algebra


def _check_f_serre(s: Session):
    d = s.datum
    for i in d.vertices:
        for j in d.vertices:
            if i != j and not fa.normal_form(fa.serre_element(d, i, j)).is_zero():
                return False
    return True


def _check_f_serre_ideal(s: Session):
    d = s.datum
    bound = s.serre_context_bound
    for i in d.vertices:
        for j in d.vertices:
            if i == j:
                continue
            rel = fa.serre_element(d, i, j)
            deg = height(next(iter({d.weight_of_word(w) for w in rel.terms})))
            room = bound - deg
            if room < 0:
                continue
            contexts = [()]
            for ln in range(1, room + 1):
                contexts.extend(
                    itertools.product(d.vertices, repeat=ln)
                )
            for ctx in contexts:
                for cut in range(len(ctx) + 1):
                    left = FreeElement.word(d, ctx[:cut])
                    right = FreeElement.word(d, ctx[cut:])
                    inside = left * rel * right
                    if not fa.normal_form(inside).is_zero():
                        return False
    return True


def _check_f_coproduct_hom(s: Session):
    from .freealg import coproduct_r, free_mul, twisted_tensor_mul

    d = s.datum
    words = [()]
    for ln in range(1, min(4, s.weight_bound) + 1):
        words.extend(itertools.product(d.vertices, repeat=ln))
    sample = [w for w in words if len(w) <= 4][:40]
    for w1 in sample:
        x = FreeElement.word(d, w1)
        for w2 in sample:
            if len(w1) + len(w2) > 5:
                continue
            y = FreeElement.word(d, w2)
            lhs = coproduct_r(free_mul(x, y))
            rhs = twisted_tensor_mul(coproduct_r(x), coproduct_r(y))
            if lhs != rhs:
                return False
    return True


def _check_f_form_symmetric(s: Session):
    d = s.datum
    for nu in _weights_upto(d, s.weight_bound):
        words = words_of_weight(d, nu)
        for w1 in words:
            for w2 in words:
                a = lusztig_form(FreeElement.word(d, w1), FreeElement.word(d, w2))
                b = lusztig_form(FreeElement.word(d, w2), FreeElement.word(d, w1))
                if a != b:
                    return False
    return True


def _check_f_dims_kostant(s: Session):
    d = s.datum
    roots = positive_roots(d)
    if roots is None:
        return ("skip", "root system is not finite; no partition oracle")
    for nu in _weights_upto(d, s.weight_bound):
        if fa.weight_basis(d, nu).dim != kostant_count(roots, nu):
            return False
    return True


def _check_f_assoc(s: Session):
    d = s.datum
    triples = []
    for nu in _weights_upto(d, min(2, s.weight_bound)):
        triples.extend(_basis_elements(d, nu))
    sample = triples[:8]
    for a in sample:
        for b in sample:
            for c in sample:
                if fa.f_mul(fa.f_mul(a, b), c) != fa.f_mul(a, fa.f_mul(b, c)):
                    return False
    return True


def _check_f_decomposition(s: Session):
    d = s.datum
    # x = sum th^(t) x_t on the left, x = sum x_t th^(t) on the right
    sides = (("left", fa.i_decompose, 1), ("right", fa.i_decompose_right, -1))
    for nu in _weights_upto(d, s.weight_bound):
        for i in d.vertices:
            if not fa.dim_decomposition_check(d, i, nu):
                return False
            for x in _basis_elements(d, nu):
                for side, decompose, order in sides:
                    rebuilt = fa.FElement(d)
                    for t, piece in decompose(i, x):
                        if not fa.in_kernel(i, side, piece):
                            return False
                        pair = (fa.theta_divided(d, i, t), piece)[::order]
                        rebuilt = rebuilt + fa.f_mul(*pair)
                    if rebuilt != x:
                        return False
    return True


def _orientations(datum: CartanDatum):
    quiver = datum.quiver
    n = len(quiver.arrows)
    for bits in range(2 ** n):
        subset = frozenset(k for k in range(n) if bits >> k & 1)
        yield load_datum(sigma_E(subset, quiver))


def _check_f_orientation(s: Session):
    d = s.datum
    bound = min(3, s.weight_bound)
    reference = None
    for datum2 in _orientations(d):
        table = {}
        for nu_a in _weights_upto(datum2, bound):
            for nu_b in _weights_upto(datum2, bound):
                if height(nu_a) + height(nu_b) > bound or not any(nu_a + nu_b):
                    continue
                for w1 in words_of_weight(datum2, nu_a):
                    for w2 in words_of_weight(datum2, nu_b):
                        prod = fa.normal_form(FreeElement.word(datum2, w1 + w2))
                        table[(w1, w2)] = tuple(sorted(prod.terms.items()))
        dims = {
            nu: fa.weight_basis(datum2, nu).dim
            for nu in _weights_upto(datum2, s.weight_bound)
        }
        snapshot = (dims, table)
        if reference is None:
            reference = snapshot
        elif snapshot != reference:
            return False
    return True


def suite_f(s: Session) -> list[CheckResult]:
    return [
        _run("f-serre-vanishing", lambda: _check_f_serre(s)),
        _run("f-serre-ideal", lambda: _check_f_serre_ideal(s)),
        _run("f-coproduct-homomorphism", lambda: _check_f_coproduct_hom(s)),
        _run("f-form-symmetric", lambda: _check_f_form_symmetric(s)),
        _run("f-dims-kostant", lambda: _check_f_dims_kostant(s)),
        _run("f-mul-associative", lambda: _check_f_assoc(s)),
        _run("f-decomposition-reconstruction", lambda: _check_f_decomposition(s)),
        _run("f-orientation-independence", lambda: _check_f_orientation(s)),
    ]


# ---------------------------------------------------------------------------
# suite: the quantum group


def _u_generators(datum: CartanDatum):
    out = []
    for i in datum.vertices:
        out.append(ua.UElement.E(datum, i))
        out.append(ua.UElement.F(datum, i))
        out.append(ua.UElement.K(datum, datum.unit_vec(i)))
    return out


def _check_u_serre(s: Session):
    d = s.datum
    for i in d.vertices:
        for j in d.vertices:
            if i == j:
                continue
            n = 1 - d.a(i, j)
            for maker, emb in (
                (ua.UElement.E, ua.embed_plus),
                (ua.UElement.F, ua.embed_minus),
            ):
                acc = ua.UElement(d)
                for k in range(n + 1):
                    term = ua.u_product(
                        [
                            emb(fa.theta_divided(d, i, k)),
                            maker(d, j),
                            emb(fa.theta_divided(d, i, n - k)),
                        ]
                    )
                    acc = acc + term.scale(MINUS_ONE if k % 2 else ONE)
                if not acc.is_zero():
                    return False
    return True


def _check_u_relations(s: Session):
    d = s.datum
    dd = (v_pow(1) - v_pow(-1)).inverse()
    for i in d.vertices:
        hi = d.unit_vec(i)
        for j in d.vertices:
            hj = d.unit_vec(j)
            Ei, Fj = ua.UElement.E(d, i), ua.UElement.F(d, j)
            Kj = ua.UElement.K(d, hj)
            lhs = ua.u_mul(Ei, Fj) - ua.u_mul(Fj, Ei)
            if i == j:
                ki = ua.UElement.K(d, hi) - ua.UElement.K(d, tuple(-x for x in hi))
                if lhs != ki.scale(dd):
                    return False
            elif not lhs.is_zero():
                return False
            # torus commutation
            got = ua.u_mul(Kj, Ei)
            want = ua.u_mul(Ei, Kj).scale(v_pow(d.alpha_eval(i, hj)))
            if got != want:
                return False
            gotf = ua.u_mul(Kj, ua.UElement.F(d, i))
            wantf = ua.u_mul(ua.UElement.F(d, i), Kj).scale(v_pow(-d.alpha_eval(i, hj)))
            if gotf != wantf:
                return False
    k0 = ua.UElement.K(d, d.zero_vec())
    return k0 == ua.UElement.unit(d)


def _u_monomial_keys(datum: CartanDatum, degree: int, mus: list):
    fwords = []
    ewords = []
    for total in range(degree + 1):
        for nu in dims_of_height(datum.rank, total):
            fwords.extend(fa.weight_basis(datum, nu).basis_words)
    ewords = list(fwords)
    keys = []
    for fw in fwords:
        for ew in ewords:
            if len(fw) + len(ew) > degree:
                continue
            for mu in mus:
                keys.append((fw, tuple(mu), ew))
    return keys


def _mu_samples(datum: CartanDatum):
    rank = datum.rank
    out = [datum.zero_vec()]
    out.append(datum.unit_vec(datum.vertices[0]))
    if rank > 1:
        out.append(datum.unit_vec(datum.vertices[1]))
        out.append(
            add_vec(
                datum.unit_vec(datum.vertices[0]), datum.unit_vec(datum.vertices[1])
            )
        )
    out.append(tuple(-x for x in datum.unit_vec(datum.vertices[0])))
    return out


def _check_u_hopf(s: Session):
    d = s.datum
    for g in _u_generators(d):
        if not ua.hopf_axiom_check(g):
            return False
    for key in _u_monomial_keys(d, s.hopf_degree, _mu_samples(d)):
        if not ua.hopf_axiom_check(ua.UElement(d, {key: ONE})):
            return False
    return True


def _check_u_assoc(s: Session):
    d = s.datum
    gens = _u_generators(d)
    for a in gens:
        for b in gens:
            for c in gens:
                if ua.u_mul(ua.u_mul(a, b), c) != ua.u_mul(a, ua.u_mul(b, c)):
                    return False
    keys = _u_monomial_keys(d, 2, [d.zero_vec()])
    sample = [ua.UElement(d, {k: ONE}) for k in keys[:6]]
    for a in sample:
        for b in sample:
            for c in gens[: 2 * d.rank]:
                if ua.u_mul(ua.u_mul(a, b), c) != ua.u_mul(a, ua.u_mul(b, c)):
                    return False
    return True


def _check_u_embed(s: Session):
    d = s.datum
    elements = []
    for nu in _weights_upto(d, min(3, s.weight_bound)):
        elements.extend(_basis_elements(d, nu))
    for x in elements[:10]:
        for y in elements[:10]:
            prod = fa.f_mul(x, y)
            if ua.embed_plus(prod) != ua.u_mul(ua.embed_plus(x), ua.embed_plus(y)):
                return False
            if ua.embed_minus(prod) != ua.u_mul(ua.embed_minus(x), ua.embed_minus(y)):
                return False
    return True


def _check_u_triangular_unique(s: Session):
    d = s.datum
    gens = _u_generators(d)
    words = list(itertools.product(range(len(gens)), repeat=3))[:40]
    for word in words:
        seq = [gens[k] for k in word]
        left = ua.u_mul(ua.u_mul(seq[0], seq[1]), seq[2])
        right = ua.u_mul(seq[0], ua.u_mul(seq[1], seq[2]))
        if left != right:
            return False
    return True


def suite_u(s: Session) -> list[CheckResult]:
    return [
        _run("u-serre-vanishing", lambda: _check_u_serre(s)),
        _run("u-defining-relations", lambda: _check_u_relations(s)),
        _run("u-hopf-axioms", lambda: _check_u_hopf(s)),
        _run("u-mul-associative", lambda: _check_u_assoc(s)),
        _run("u-embed-homomorphism", lambda: _check_u_embed(s)),
        _run("u-triangular-uniqueness", lambda: _check_u_triangular_unique(s)),
    ]


# ---------------------------------------------------------------------------
# suite: symmetries


def _expected_table(datum: CartanDatum, i: int):
    """The generator images written out directly from the formulas."""
    dd = datum
    out = {}
    hi = dd.unit_vec(i)
    out[("E", i)] = ua.u_mul(ua.UElement.F(dd, i), ua.UElement.K(dd, hi)).scale(
        MINUS_ONE
    )
    out[("F", i)] = ua.u_mul(
        ua.UElement.K(dd, tuple(-x for x in hi)), ua.UElement.E(dd, i)
    ).scale(MINUS_ONE)
    for j in dd.vertices:
        if j == i:
            continue
        n = -dd.a(i, j)
        esum = ua.UElement(dd)
        fsum = ua.UElement(dd)
        for r in range(n + 1):
            sgn = MINUS_ONE if r % 2 else ONE
            esum = esum + ua.u_product(
                [
                    ua.embed_plus(fa.theta_divided(dd, i, n - r)),
                    ua.UElement.E(dd, j),
                    ua.embed_plus(fa.theta_divided(dd, i, r)),
                ]
            ).scale(sgn * v_pow(-r))
            fsum = fsum + ua.u_product(
                [
                    ua.embed_minus(fa.theta_divided(dd, i, r)),
                    ua.UElement.F(dd, j),
                    ua.embed_minus(fa.theta_divided(dd, i, n - r)),
                ]
            ).scale(sgn * v_pow(r))
        out[("E", j)] = esum
        out[("F", j)] = fsum
    return out


def _check_ti_tables(s: Session):
    d = s.datum
    for i in d.vertices:
        expect = _expected_table(d, i)
        for j in d.vertices:
            if sym.ti_apply(i, ua.UElement.E(d, j)) != expect[("E", j)]:
                return False
            if sym.ti_apply(i, ua.UElement.F(d, j)) != expect[("F", j)]:
                return False
            mu = d.unit_vec(j)
            want = ua.UElement.K(d, d.reflect_coweight(i, mu))
            if sym.ti_apply(i, ua.UElement.K(d, mu)) != want:
                return False
    return True


def _check_ti_inverse(s: Session):
    d = s.datum
    for i in d.vertices:
        for g in _u_generators(d):
            if sym.ti_apply(i, sym.ti_inverse_apply(i, g)) != g:
                return False
            if sym.ti_inverse_apply(i, sym.ti_apply(i, g)) != g:
                return False
    return True


def _check_ti_homomorphism(s: Session):
    d = s.datum
    gens = _u_generators(d)
    for i in d.vertices:
        for a in gens:
            for b in gens:
                lhs = sym.ti_apply(i, ua.u_mul(a, b))
                rhs = ua.u_mul(sym.ti_apply(i, a), sym.ti_apply(i, b))
                if lhs != rhs:
                    return False
    return True


def _check_ti_relation_preservation(s: Session):
    d = s.datum
    dd = (v_pow(1) - v_pow(-1)).inverse()
    for i in d.vertices:
        for j in d.vertices:
            for k in d.vertices:
                Ej = sym.ti_apply(i, ua.UElement.E(d, j))
                Fk = sym.ti_apply(i, ua.UElement.F(d, k))
                lhs = ua.u_mul(Ej, Fk) - ua.u_mul(Fk, Ej)
                if j == k:
                    hi = d.unit_vec(j)
                    kk = sym.ti_apply(i, ua.UElement.K(d, hi)) - sym.ti_apply(
                        i, ua.UElement.K(d, tuple(-x for x in hi))
                    )
                    if lhs != kk.scale(dd):
                        return False
                elif not lhs.is_zero():
                    return False
    return True


def _check_ti_subalgebra(s: Session):
    d = s.datum
    for i in d.vertices:
        for nu in _weights_upto(d, s.weight_bound):
            if not sym.if_membership_crosscheck(d, i, nu):
                return False
    return True


def _check_ti_ttilde(s: Session):
    d = s.datum
    mus = _mu_samples(d)
    for i in d.vertices:
        for key in _u_monomial_keys(d, 2 * s.ttilde_degree, mus):
            fw, mu, ew = key
            if len(fw) > s.ttilde_degree or len(ew) > s.ttilde_degree:
                continue
            x = ua.UElement(d, {key: ONE})
            if sym.t_tilde_apply(i, x) != sym.ti_apply(i, x):
                return False
    return True


def _check_ti_weight_transport(s: Session):
    d = s.datum
    for i in d.vertices:
        for nu in _weights_upto(d, min(3, s.weight_bound)):
            for x in _basis_elements(d, nu):
                img = sym.ti_apply(i, ua.embed_plus(x))
                want = d.reflect_dim(i, nu)
                for key in img.terms:
                    if ua.u_degree(d, key) != want:
                        return False
        for mu in _mu_samples(d):
            img = sym.ti_apply(i, ua.UElement.K(d, mu))
            want = ua.UElement.K(d, d.reflect_coweight(i, mu))
            if img != want:
                return False
    return True


def _check_ti_calibration(s: Session):
    d = s.datum
    samples = []
    for nu in _weights_upto(d, min(3, s.weight_bound)):
        if any(nu):
            samples.extend(list(_basis_elements(d, nu))[:2])
    report = sym.calibrate_twist(d, d.vertices[0], samples[:6])
    return all(entry["consistent"] for entry in report)


def suite_ti(s: Session) -> list[CheckResult]:
    return [
        _run("ti-generator-formulas", lambda: _check_ti_tables(s)),
        _run("ti-inverse-identity", lambda: _check_ti_inverse(s)),
        _run("ti-homomorphism", lambda: _check_ti_homomorphism(s)),
        _run("ti-relation-preservation", lambda: _check_ti_relation_preservation(s)),
        _run("ti-subalgebra-equivalence", lambda: _check_ti_subalgebra(s)),
        _run("ti-decomposition-route", lambda: _check_ti_ttilde(s)),
        _run("ti-weight-transport", lambda: _check_ti_weight_transport(s)),
        _run("ti-twist-calibration", lambda: _check_ti_calibration(s)),
    ]


def suite_braid(s: Session) -> list[CheckResult]:
    d = s.datum
    out = []
    for i in d.vertices:
        for j in d.vertices:
            if i >= j:
                continue
            a = d.a(i, j)
            name = f"braid-{i}-{j}"
            if a in (-1, 0):
                out.append(_run(name, lambda i=i, j=j: sym.braid_verify(d, i, j)))
            else:
                out.append(
                    CheckResult(name, "skip", 0, f"a_ij = {a} has infinite braid order")
                )
    if not out:
        out.append(CheckResult("braid-vacuous", "pass", 0, "rank 1: nothing to check"))
    return out


# ---------------------------------------------------------------------------
# suite: the finite-field oracle


def _check_hall_partition(s: Session):
    quiver = s.datum.quiver
    for q in s.hall_qs:
        for dims in dims_upto(s.hall_dims()):
            for i in quiver.vertices:
                if not (is_sink(i, quiver) or is_source(i, quiver)):
                    continue
                counts = hall.stratum_counts(quiver, dims, q, i, s.budget)
                if sum(counts) != q ** hall.e_v_dimension(quiver, dims):
                    return False
    return True


def _check_hall_orbits(s: Session):
    quiver = s.datum.quiver
    for q in s.hall_qs:
        for dims in dims_upto(s.hall_dims()):
            classes = hall.iso_classes(quiver, q, dims, s.budget)
            total = sum(size for _rep, size in classes)
            if total != q ** hall.e_v_dimension(quiver, dims):
                return False
            order = hall.group_order(q, dims)
            if any(order % size for _rep, size in classes):
                return False
    return True


def _check_hall_bgp(s: Session):
    quiver = s.datum.quiver
    datum = s.datum
    cases = []
    for q in s.hall_qs:
        for i in quiver.vertices:
            if not is_sink(i, quiver):
                continue
            reversed_quiver = sigma_i(i, quiver)
            for dims in dims_upto(s.hall_dims()):
                target = datum.reflect_dim(i, dims)
                if any(x < 0 for x in target):
                    continue
                # a case enumerates E_V on both sides; every budget is
                # met, in the order of the work, before any of it is done
                hall.require_budget(quiver, q, dims, s.budget)
                hall.require_budget(reversed_quiver, q, target, s.budget)
                cases.append((q, i, reversed_quiver, dims, target))
    for q, i, reversed_quiver, dims, target in cases:
        zero_classes = [
            rep
            for rep, _size in hall.iso_classes(quiver, q, dims, s.budget)
            if hall.stratum_index(hall.QuiverRep(quiver, q, dims, rep), i) == 0
        ]
        images = set()
        for rep in zero_classes:
            y = hall.bgp_reflect(i, hall.QuiverRep(quiver, q, dims, rep))
            if y.dims != target or hall.stratum_index(y, i) != 0:
                return False
            images.add(hall.canonical_point(y.quiver, q, y.dims, y.mats, s.budget))
        if len(images) != len(zero_classes):
            return False
        other = [
            rep
            for rep, _size in hall.iso_classes(reversed_quiver, q, target, s.budget)
            if hall.stratum_index(hall.QuiverRep(reversed_quiver, q, target, rep), i)
            == 0
        ]
        if len(other) != len(images):
            return False
    return True


def _check_hall_assoc(s: Session):
    quiver = s.datum.quiver
    q = 4
    v_num = 2
    simples = [hall.HallElement.simple(quiver, q, i) for i in quiver.vertices]
    for a in simples:
        for b in simples:
            for c in simples:
                lhs = hall.hall_product(
                    hall.hall_product(a, b, v_num, s.budget), c, v_num, s.budget
                )
                rhs = hall.hall_product(
                    a, hall.hall_product(b, c, v_num, s.budget), v_num, s.budget
                )
                if lhs != rhs:
                    return False
    return True


def _check_hall_serre(s: Session):
    d = s.datum
    quiver = d.quiver
    q = 4
    v_num = 2
    for i in d.vertices:
        for j in d.vertices:
            if i == j:
                continue
            rel = fa.serre_element(d, i, j)
            acc = hall.HallElement(quiver, q)
            for word, coeff in rel.terms.items():
                acc = acc + hall.hall_word(quiver, q, v_num, word, s.budget).scale(
                    coeff.eval_at(Fraction(v_num))
                )
            if not acc.is_zero():
                return False
    return True


def _hall_agreement(datum: CartanDatum, bound: tuple, budget: int) -> bool:
    """specialize_compare on every pair of nonzero weights whose sum stays
    within bound, with one theta-word -> Hall function dict for them all."""
    images: dict = {}
    for nu_a in dims_upto(bound):
        for nu_b in dims_upto(bound):
            total = add_vec(nu_a, nu_b)
            if any(t > b for t, b in zip(total, bound)):
                continue
            if not any(nu_a) or not any(nu_b):
                continue
            report = hall.specialize_compare(datum, nu_a, nu_b, 4, budget, images)
            if not all(r["match"] for r in report):
                return False
    return True


def _check_hall_agreement(s: Session):
    return _hall_agreement(s.datum, s.hall_dims(), s.budget)


def _check_hall_orientation(s: Session):
    d = s.datum
    small = tuple(1 for _ in range(d.rank)) if d.rank > 2 else s.hall_dims()
    return all(_hall_agreement(d2, small, s.budget) for d2 in _orientations(d))


def suite_hall(s: Session) -> list[CheckResult]:
    return [
        _run("hall-strata-partition", lambda: _check_hall_partition(s)),
        _run("hall-orbit-stabilizer", lambda: _check_hall_orbits(s)),
        _run("hall-bgp-bijection", lambda: _check_hall_bgp(s)),
        _run("hall-product-associative", lambda: _check_hall_assoc(s)),
        _run("hall-serre-specialized", lambda: _check_hall_serre(s)),
        _run("hall-structure-agreement", lambda: _check_hall_agreement(s)),
        _run("hall-orientation-independence", lambda: _check_hall_orientation(s)),
    ]


# ---------------------------------------------------------------------------
# suite: the double


def _double_generators(datum: CartanDatum):
    out = []
    for i in datum.vertices:
        out.append(dbl.DoubleElement.plus_of(datum, fa.FElement.generator(datum, i)))
        out.append(dbl.DoubleElement.minus_of(datum, fa.FElement.generator(datum, i)))
        out.append(dbl.DoubleElement.torus(datum, datum.unit_vec(i)))
    return out


def _check_double_calibration(s: Session):
    consts = dbl.calibrate_pairing(s.datum)
    return all(c == dbl.PAIRING_CONSTANT for c in consts.values())


def _check_double_cross(s: Session):
    d = s.datum
    dd = (v_pow(1) - v_pow(-1)).inverse()
    for i in d.vertices:
        for j in d.vertices:
            plus = dbl.DoubleElement.plus_of(d, fa.FElement.generator(d, i))
            minus = dbl.DoubleElement.minus_of(d, fa.FElement.generator(d, j))
            got = dbl.double_mul(plus, minus) - dbl.double_mul(minus, plus)
            if i == j:
                want = (
                    dbl.DoubleElement.torus(d, d.unit_vec(i))
                    - dbl.DoubleElement.torus(d, tuple(-x for x in d.unit_vec(i)))
                ).scale(dd)
                if got != want:
                    return False
            elif not got.is_zero():
                return False
    return True


def _check_double_iso(s: Session):
    d = s.datum
    gens = _double_generators(d)
    for a in gens:
        for b in gens:
            lhs = dbl.iso_lambda(dbl.double_mul(a, b))
            rhs = ua.u_mul(dbl.iso_lambda(a), dbl.iso_lambda(b))
            if lhs != rhs:
                return False
    # a few degree-2 and degree-3 samples along the triangular basis
    keys = _u_monomial_keys(d, 3, [d.zero_vec(), d.unit_vec(d.vertices[0])])
    sample = [dbl.DoubleElement(d, {k: ONE}) for k in keys[:12]]
    for a in sample:
        for b in sample[:6]:
            lhs = dbl.iso_lambda(dbl.double_mul(a, b))
            rhs = ua.u_mul(dbl.iso_lambda(a), dbl.iso_lambda(b))
            if lhs != rhs:
                return False
    return True


def _half_to_u(datum: CartanDatum, sign: str, x: dbl.HalfElement) -> ua.UElement:
    out: dict = {}
    for (mu, word), c in x.terms.items():
        k = ua.UElement.K(datum, mu)
        w = (
            ua.embed_plus(fa.FElement(datum, {word: ONE}))
            if sign == "plus"
            else ua.embed_minus(fa.FElement(datum, {word: ONE}))
        )
        for key, ck in ua.u_mul(k, w).terms.items():
            merge(out, key, c * ck)
    return ua.UElement(datum, out)


def _check_double_delta_match(s: Session):
    d = s.datum
    samples = []
    for nu in _weights_upto(d, 2):
        if any(nu):
            for x in _basis_elements(d, nu):
                samples.append(x)
    for sign, emb in (("plus", ua.embed_plus), ("minus", ua.embed_minus)):
        for x in samples:
            hx = dbl.HalfElement.of_f(d, sign, x)
            td = dbl.half_delta(sign, hx)
            u_side = ua.delta(emb(x))
            got = {}
            for ((m1, w1), (m2, w2)), c in td.terms.items():
                left = _half_to_u(d, sign, dbl.HalfElement(d, sign, {(m1, w1): ONE}))
                right = _half_to_u(d, sign, dbl.HalfElement(d, sign, {(m2, w2): ONE}))
                for ka, ca in left.terms.items():
                    for kb, cb in right.terms.items():
                        merge(got, (ka, kb), c * ca * cb)
            if got != u_side.terms:
                return False
    return True


def _check_double_antipode_match(s: Session):
    d = s.datum
    for sign, emb in (("plus", ua.embed_plus), ("minus", ua.embed_minus)):
        for nu in _weights_upto(d, 2):
            if not any(nu):
                continue
            for x in _basis_elements(d, nu):
                hx = dbl.HalfElement.of_f(d, sign, x)
                got = _half_to_u(d, sign, dbl.half_antipode(sign, hx))
                want = ua.antipode(emb(x))
                if got != want:
                    return False
    return True


def _check_double_coassoc(s: Session):
    d = s.datum
    for sign in ("plus", "minus"):
        samples = [dbl.HalfElement.generator(d, sign, i) for i in d.vertices]
        for nu in _weights_upto(d, 2):
            if height(nu) == 2:
                for x in _basis_elements(d, nu):
                    samples.append(dbl.HalfElement.of_f(d, sign, x))
        for x in samples:
            dx = dbl.half_delta(sign, x)
            left = {}
            right = {}
            for (k1, k2), c in dx.terms.items():
                inner = dbl.half_delta(sign, dbl.HalfElement(d, sign, {k1: ONE}))
                for (a, b), ci in inner.terms.items():
                    merge(left, (a, b, k2), c * ci)
                inner = dbl.half_delta(sign, dbl.HalfElement(d, sign, {k2: ONE}))
                for (a, b), ci in inner.terms.items():
                    merge(right, (k1, a, b), c * ci)
            if left != right:
                return False
    return True


def _check_double_pairing_axioms(s: Session):
    d = s.datum
    plus1 = [dbl.HalfElement.generator(d, "plus", i) for i in d.vertices]
    minus1 = [dbl.HalfElement.generator(d, "minus", i) for i in d.vertices]
    plus2 = []
    minus2 = []
    for nu in _weights_upto(d, 2):
        if height(nu) == 2:
            for x in _basis_elements(d, nu):
                plus2.append(dbl.HalfElement.of_f(d, "plus", x))
                minus2.append(dbl.HalfElement.of_f(d, "minus", x))
    # multiplicativity against the coproduct, both skew slots
    for a in plus1 + plus2:
        legs = dbl.half_delta("plus", a)
        for b in minus1:
            for bp in minus1:
                lhs = dbl.pairing_phi(a, dbl.half_mul("minus", b, bp))
                total = ZERO
                for (k1, k2), c in legs.terms.items():
                    total = total + c * dbl.pairing_phi(
                        dbl.HalfElement(d, "plus", {k1: ONE}), b
                    ) * dbl.pairing_phi(dbl.HalfElement(d, "plus", {k2: ONE}), bp)
                if total != lhs:
                    return False
    for b in minus1 + minus2:
        legs = dbl.half_delta("minus", b)
        for a in plus1:
            for ap in plus1:
                lhs = dbl.pairing_phi(dbl.half_mul("plus", a, ap), b)
                total = ZERO
                for (k1, k2), c in legs.terms.items():
                    total = total + c * dbl.pairing_phi(
                        ap, dbl.HalfElement(d, "minus", {k1: ONE})
                    ) * dbl.pairing_phi(a, dbl.HalfElement(d, "minus", {k2: ONE}))
                if total != lhs:
                    return False
    # antipode compatibility at generator level
    for i in d.vertices:
        a = dbl.HalfElement.generator(d, "plus", i)
        b = dbl.HalfElement.generator(d, "minus", i)
        lhs = dbl.pairing_phi(dbl.half_antipode("plus", a), dbl.half_antipode("minus", b))
        if lhs != dbl.pairing_phi(a, b):
            return False
    return True


def _check_double_torus_consistency(s: Session):
    d = s.datum
    x = dbl.DoubleElement.plus_of(d, fa.FElement.generator(d, d.vertices[0]))
    for mu in _mu_samples(d):
        k = dbl.DoubleElement.torus(d, mu)
        i = d.vertices[0]
        lhs = dbl.double_mul(k, x)
        rhs = dbl.double_mul(x, k).scale(v_pow(d.alpha_eval(i, mu)))
        if lhs != rhs:
            return False
    return True


def suite_double(s: Session) -> list[CheckResult]:
    return [
        _run("double-pairing-calibration", lambda: _check_double_calibration(s)),
        _run("double-cross-relation", lambda: _check_double_cross(s)),
        _run("double-iso-homomorphism", lambda: _check_double_iso(s)),
        _run("double-delta-match", lambda: _check_double_delta_match(s)),
        _run("double-antipode-match", lambda: _check_double_antipode_match(s)),
        _run("double-coassociativity", lambda: _check_double_coassoc(s)),
        _run("double-pairing-axioms", lambda: _check_double_pairing_axioms(s)),
        _run("double-torus-consistency", lambda: _check_double_torus_consistency(s)),
    ]


SUITES = {
    "f": suite_f,
    "u": suite_u,
    "ti": suite_ti,
    "braid": suite_braid,
    "hall": suite_hall,
    "double": suite_double,
}


def run_suite(session: Session, name: str) -> list[CheckResult]:
    key = name.removeprefix("verify-")
    if key == "all":
        out = []
        for suite_name in ("f", "u", "ti", "braid", "hall", "double"):
            out.extend(SUITES[suite_name](session))
        return out
    if key not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from "
            + ", ".join(sorted(SUITES)) + ", all"
        )
    return SUITES[key](session)
