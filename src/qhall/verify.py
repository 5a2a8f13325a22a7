"""Named verification suites over a session datum.

A check states each comparison it makes as
`_expect(inputs, got, want, *elements)`, which raises `Mismatch` on the
first pair of sides that differ; a check with nothing to compare on the
datum raises `Skip`.  `_run` alone turns an outcome into a status: a
check that returns passes, `Mismatch` fails with the inputs and both
sides as its detail (only the keys where they differ, when the sides are
dicts or elements), `Skip` and `hall.BudgetExceeded` skip, and any other
exception is an error whose detail names its type, its message and the
last frame of its traceback.  A suite is a deterministic table of
(name, check) rows.  The acceptance test module drives the same checks
at the documented bounds, and the CLI exposes them through the verify
subcommand with exit code 0 exactly when nothing fails or errs.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass

from . import double as dbl
from . import falgebra as fa
from . import hall
from . import symmetries as sym
from . import ualgebra as ua
from .cartan import (
    CartanDatum,
    Quiver,
    add_vec,
    dims_of_height,
    dims_upto,
    height,
    is_sink,
    is_source,
    kostant_count,
    load_datum,
    positive_roots,
    scale_vec,
    sigma_E,
    sigma_i,
    sub_vec,
    weyl_kac_dim,
)
from .freealg import FreeElement, TensorElement, lusztig_form, words_of_weight
from .lincomb import LinComb, linear
from .ratfunc import MINUS_ONE, ONE, ZERO, v_pow


@dataclass
class Session:
    datum: CartanDatum
    budget: int = hall.DEFAULT_BUDGET
    weight_bound: int = 4
    hopf_degree: int = 3
    ttilde_degree: int = 3
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


class Mismatch(Exception):
    """Two sides a check compares differ; raised by `_expect` only."""


class Skip(Exception):
    """A check has nothing to compare on this datum."""


# each side of a failing detail is cut here, so the detail stays one line
SIDE_CHARS = 160


def _cut(text: str) -> str:
    return text if len(text) <= SIDE_CHARS else text[: SIDE_CHARS - 3] + "..."


def _show(x) -> str:
    """One side in its canonical printed form, cut at SIDE_CHARS."""
    if isinstance(x, (TensorElement, hall.HallElement)):  # no printed form
        x = x.terms
    if isinstance(x, dict):
        text = "{" + ", ".join(f"{k}: {c}" for k, c in sorted(x.items())) + "}"
    else:
        text = str(x)
    return _cut(text)


def _space(x) -> str:
    """The type of a side and the values that fix its space, such as its
    datum, cut at SIDE_CHARS."""
    values = (f"{n}={getattr(x, n)}" for n in getattr(x, "SPACE", ()))
    return _cut(", ".join((type(x).__name__, *values)))


def _expect(inputs: str, got, want, *elements) -> None:
    """Fail the running check unless got == want.  inputs names what was
    compared; the elements it is about follow the sides and are printed
    only on failure, since printing an element costs more than most
    comparisons.  Two dicts, or two elements of one space, show the keys
    where they differ, sorted, each with both coefficients.  Other sides
    that print alike but differ, such as units over two data, are told
    apart by their spaces."""
    if got != want:
        if elements:
            inputs += " " + ", ".join(str(x) for x in elements)
        if isinstance(got, LinComb) and got._same_space(want):
            got, want = got.terms, want.terms
        if isinstance(got, dict) and isinstance(want, dict):
            keys = sorted(k for k in {*got, *want} if got.get(k) != want.get(k))
            pairs = (f"{k}: got {got.get(k, 0)}, want {want.get(k, 0)}" for k in keys)
            raise Mismatch(f"{inputs}: differ at {_cut('; '.join(pairs))}")
        g, w = _show(got), _show(want)
        if g == w:
            g, w = f"{g} [{_space(got)}]", f"{w} [{_space(want)}]"
        raise Mismatch(f"{inputs}: got {g}, want {w}")


def _run(name: str, check, *args) -> CheckResult:
    """Run check(*args); the only place an outcome becomes a status."""
    start = time.perf_counter()
    status, detail = "pass", ""
    try:
        check(*args)
    except Mismatch as e:
        status, detail = "fail", str(e)
    except (Skip, hall.BudgetExceeded) as e:
        status, detail = "skip", str(e)
    except Exception as e:
        # one broken check must not take the rest of the suite down
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
        status, detail = "error", f"{type(e).__name__}: {e} (at {where})"
    millis = int((time.perf_counter() - start) * 1000)
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
            if i != j:
                nf = fa.normal_form(fa.serre_element(d, i, j))
                _expect(f"serre({i},{j})", nf, fa.FElement(d))


# f-serre-ideal brings each Serre relator up to this length by words
SERRE_CONTEXT_BOUND = 5


def _check_f_serre_ideal(s: Session):
    d = s.datum
    bound = SERRE_CONTEXT_BOUND
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
                    inside = fa.normal_form(left * rel * right)
                    where = f"th{ctx[:cut]} serre({i},{j}) th{ctx[cut:]}"
                    _expect(where, inside, fa.FElement(d))


def _check_f_coproduct_hom(s: Session):
    from .freealg import coproduct_r, free_mul, twisted_tensor_mul

    d = s.datum
    words = [()]
    for ln in range(1, min(4, s.weight_bound) + 1):
        words.extend(itertools.product(d.vertices, repeat=ln))
    sample = []
    for w in [w for w in words if len(w) <= 4][:40]:
        x = FreeElement.word(d, w)
        sample.append((w, x, coproduct_r(x)))
    for w1, x, rx in sample:
        for w2, y, ry in sample:
            if len(w1) + len(w2) > 5:
                continue
            lhs = coproduct_r(free_mul(x, y))
            _expect(f"r(th{w1} th{w2})", lhs, twisted_tensor_mul(rx, ry))


def _check_f_form_symmetric(s: Session):
    d = s.datum
    for nu in _weights_upto(d, s.weight_bound):
        words = words_of_weight(d, nu)
        for w1 in words:
            for w2 in words:
                a = lusztig_form(FreeElement.word(d, w1), FreeElement.word(d, w2))
                b = lusztig_form(FreeElement.word(d, w2), FreeElement.word(d, w1))
                _expect(f"(th{w1}, th{w2})", a, b)


def _check_f_dims_kostant(s: Session):
    d = s.datum
    roots = positive_roots(d)
    # weight_basis keeps the Weyl-Kac count by construction, so both are
    # compared with the greedy pass over every word
    for nu in _weights_upto(d, s.weight_bound):
        greedy = fa.greedy_basis(d, nu)
        _expect(f"dim f_{nu}", greedy.dim, weyl_kac_dim(d.cartan, nu))
        if roots is not None:
            _expect(f"Kostant count of {nu}", greedy.dim, kostant_count(roots, nu))
        lyndon = fa.weight_basis(d, nu).basis_words
        _expect(f"basis words of f_{nu}", lyndon, greedy.basis_words)


def _check_f_assoc(s: Session):
    d = s.datum
    triples = []
    for nu in _weights_upto(d, min(2, s.weight_bound)):
        triples.extend(_basis_elements(d, nu))
    sample = triples[:8]
    for a in sample:
        for b in sample:
            for c in sample:
                lhs = fa.f_mul(fa.f_mul(a, b), c)
                _expect("associativity on", lhs, fa.f_mul(a, fa.f_mul(b, c)), a, b, c)


def _check_f_decomposition(s: Session):
    d = s.datum
    zero = fa.FElement(d)
    # x = sum th^(t) x_t on the left, x = sum x_t th^(t) on the right
    sides = (("left", fa.i_decompose, 1), ("right", fa.i_decompose_right, -1))
    for nu in _weights_upto(d, s.weight_bound):
        for i in d.vertices:
            h = d.unit_vec(i)
            levels = (sub_vec(nu, scale_vec(t, h)) for t in range(nu[d.index(i)] + 1))
            ranks = sum(len(fa.sub_if_basis(d, i, mu, "left")) for mu in levels)
            dim = fa.weight_basis(d, nu).dim
            _expect(f"dims of the {i}-decomposition of f_{nu}", ranks, dim)
            for x in _basis_elements(d, nu):
                for side, decompose, order in sides:
                    products = []
                    for t, piece in decompose(i, x):
                        where = f"{side} {i}-piece {t} in the kernel for"
                        _expect(where, fa.i_r_component(i, side, piece), zero, x)
                        pair = (fa.theta_divided(d, i, t), piece)[::order]
                        products.append((fa.f_mul(*pair), ONE))
                    rebuilt = x._like(linear(products, lambda p: p.terms.items()))
                    _expect(f"{side} {i}-pieces rebuilt for", rebuilt, x, x)


def _orientations(quiver: Quiver):
    n = len(quiver.arrows)
    for bits in range(2 ** n):
        subset = frozenset(k for k in range(n) if bits >> k & 1)
        yield sigma_E(subset, quiver)


def _check_f_orientation(s: Session):
    """f, U and the T_i read only a datum's vertices and Cartan matrix, and
    every symbolic memo is keyed by them; so f is the same on every
    orientation when each one loads the session's datum."""
    d = s.datum
    for quiver in _orientations(d.quiver):
        d2 = load_datum(quiver)
        _expect(f"vertices of {quiver.arrows}", d2.vertices, d.vertices)
        _expect(f"Cartan matrix of {quiver.arrows}", d2.cartan, d.cartan)


SUITE_F = (
    ("f-serre-vanishing", _check_f_serre),
    ("f-serre-ideal", _check_f_serre_ideal),
    ("f-coproduct-homomorphism", _check_f_coproduct_hom),
    ("f-form-symmetric", _check_f_form_symmetric),
    ("f-dims-kostant", _check_f_dims_kostant),
    ("f-mul-associative", _check_f_assoc),
    ("f-decomposition-reconstruction", _check_f_decomposition),
    ("f-orientation-independence", _check_f_orientation),
)


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
                div = [emb(fa.theta_divided(d, i, k)) for k in range(n + 1)]
                g, zero = maker(d, j), ua.UElement(d)
                signs = [(k, MINUS_ONE if k % 2 else ONE) for k in range(n + 1)]
                terms = linear(
                    signs, lambda k: ua.u_product([div[k], g, div[n - k]]).terms.items()
                )
                _expect(f"serre({i},{j}) on", zero._like(terms), zero, g)


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
            want = ua.UElement(d)
            if i == j:
                ki = ua.UElement.K(d, hi) - ua.UElement.K(d, tuple(-x for x in hi))
                want = ki.scale(dd)
            _expect(f"[E{i}, F{j}]", lhs, want)
            # torus commutation
            got = ua.u_mul(Kj, Ei)
            want = ua.u_mul(Ei, Kj).scale(v_pow(d.alpha_eval(i, hj)))
            _expect(f"moving E{i} past", got, want, Kj)
            gotf = ua.u_mul(Kj, ua.UElement.F(d, i))
            wantf = ua.u_mul(ua.UElement.F(d, i), Kj).scale(v_pow(-d.alpha_eval(i, hj)))
            _expect(f"moving F{i} past", gotf, wantf, Kj)
    k0 = ua.UElement.K(d, d.zero_vec())
    _expect("K(0)", k0, ua.UElement.unit(d))


def _u_monomial_keys(datum: CartanDatum, degree: int, mus: list):
    fwords = []
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
    keys = _u_monomial_keys(d, s.hopf_degree, _mu_samples(d))
    for x in (*_u_generators(d), *(ua.UElement(d, {key: ONE}) for key in keys)):
        for name, got, want in ua.hopf_sides(x):
            _expect(f"Hopf axiom {name} on", got, want, x)


def _check_u_assoc(s: Session):
    d = s.datum
    gens = _u_generators(d)
    for a in gens:
        for b in gens:
            for c in gens:
                lhs = ua.u_mul(ua.u_mul(a, b), c)
                _expect("associativity on", lhs, ua.u_mul(a, ua.u_mul(b, c)), a, b, c)
    keys = _u_monomial_keys(d, 2, [d.zero_vec()])
    sample = [ua.UElement(d, {k: ONE}) for k in keys[:6]]
    for a in sample:
        for b in sample:
            for c in gens[: 2 * d.rank]:
                lhs = ua.u_mul(ua.u_mul(a, b), c)
                _expect("associativity on", lhs, ua.u_mul(a, ua.u_mul(b, c)), a, b, c)


def _check_u_embed(s: Session):
    d = s.datum
    elements = []
    for nu in _weights_upto(d, min(3, s.weight_bound)):
        elements.extend(_basis_elements(d, nu))
    for x in elements[:10]:
        for y in elements[:10]:
            prod = fa.f_mul(x, y)
            want = ua.u_mul(ua.embed_plus(x), ua.embed_plus(y))
            _expect("embed_plus of the product of", ua.embed_plus(prod), want, x, y)
            want = ua.u_mul(ua.embed_minus(x), ua.embed_minus(y))
            _expect("embed_minus of the product of", ua.embed_minus(prod), want, x, y)


def _check_u_triangular_unique(s: Session):
    """The ordered product F_fw K_mu E_ew of basis words is the one term
    (fw, mu, ew) with coefficient 1, so distinct triples give distinct
    terms of the normal form."""
    d = s.datum
    triple_of: dict = {}
    for key in _u_monomial_keys(d, 2, _mu_samples(d)):
        fw, mu, ew = key
        f = ua.embed_minus(fa.FElement(d, {fw: ONE}))
        e = ua.embed_plus(fa.FElement(d, {ew: ONE}))
        got = ua.u_product([f, ua.UElement.K(d, mu), e])
        _expect(f"F{fw} K{mu} E{ew}", got.terms, {key: ONE})
        _expect("the triple of", triple_of.setdefault(got, key), key, got)


SUITE_U = (
    ("u-serre-vanishing", _check_u_serre),
    ("u-defining-relations", _check_u_relations),
    ("u-hopf-axioms", _check_u_hopf),
    ("u-mul-associative", _check_u_assoc),
    ("u-embed-homomorphism", _check_u_embed),
    ("u-triangular-uniqueness", _check_u_triangular_unique),
)


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
        ep = [ua.embed_plus(fa.theta_divided(dd, i, r)) for r in range(n + 1)]
        fm = [ua.embed_minus(fa.theta_divided(dd, i, r)) for r in range(n + 1)]
        Ej, Fj = ua.UElement.E(dd, j), ua.UElement.F(dd, j)
        sgn = [MINUS_ONE if r % 2 else ONE for r in range(n + 1)]
        esum = linear(
            [(r, s * v_pow(-r)) for r, s in enumerate(sgn)],
            lambda r: ua.u_product([ep[n - r], Ej, ep[r]]).terms.items(),
        )
        fsum = linear(
            [(r, s * v_pow(r)) for r, s in enumerate(sgn)],
            lambda r: ua.u_product([fm[r], Fj, fm[n - r]]).terms.items(),
        )
        out[("E", j)] = ua.UElement(dd)._like(esum)
        out[("F", j)] = ua.UElement(dd)._like(fsum)
    return out


def _check_ti_tables(s: Session):
    d = s.datum
    for i in d.vertices:
        expect = _expected_table(d, i)
        for j in d.vertices:
            got = sym.ti_apply(i, ua.UElement.E(d, j))
            _expect(f"T_{i}(E{j})", got, expect[("E", j)])
            got = sym.ti_apply(i, ua.UElement.F(d, j))
            _expect(f"T_{i}(F{j})", got, expect[("F", j)])
            mu = d.unit_vec(j)
            k = ua.UElement.K(d, mu)
            want = ua.UElement.K(d, d.reflect_coweight(i, mu))
            _expect(f"T_{i} on", sym.ti_apply(i, k), want, k)


def _check_ti_inverse(s: Session):
    d = s.datum
    for i in d.vertices:
        for g in _u_generators(d):
            got = sym.ti_apply(i, sym.ti_inverse_apply(i, g))
            _expect(f"T_{i} T_{i}^-1 on", got, g, g)
            got = sym.ti_inverse_apply(i, sym.ti_apply(i, g))
            _expect(f"T_{i}^-1 T_{i} on", got, g, g)


def _check_ti_homomorphism(s: Session):
    d = s.datum
    gens = _u_generators(d)
    for i in d.vertices:
        for a in gens:
            for b in gens:
                lhs = sym.ti_apply(i, ua.u_mul(a, b))
                rhs = ua.u_mul(sym.ti_apply(i, a), sym.ti_apply(i, b))
                _expect(f"T_{i} on the product of", lhs, rhs, a, b)


def _check_ti_relation_preservation(s: Session):
    d = s.datum
    dd = (v_pow(1) - v_pow(-1)).inverse()
    for i in d.vertices:
        for j in d.vertices:
            for k in d.vertices:
                Ej = sym.ti_apply(i, ua.UElement.E(d, j))
                Fk = sym.ti_apply(i, ua.UElement.F(d, k))
                lhs = ua.u_mul(Ej, Fk) - ua.u_mul(Fk, Ej)
                want = ua.UElement(d)
                if j == k:
                    hi = d.unit_vec(j)
                    kk = sym.ti_apply(i, ua.UElement.K(d, hi)) - sym.ti_apply(
                        i, ua.UElement.K(d, tuple(-x for x in hi))
                    )
                    want = kk.scale(dd)
                _expect(f"[T_{i}(E{j}), T_{i}(F{k})]", lhs, want)


def _check_ti_subalgebra(s: Session):
    d = s.datum
    for i in d.vertices:
        for nu in _weights_upto(d, s.weight_bound):
            for side, t_side, kernel in sym.subalgebra_sides(d, i, nu):
                t = f"T_{i}" if side == "left" else f"T_{i}^-1"
                where = f"{side} {i}-subalgebra of f_{nu} by {t} and as a kernel"
                _expect(where, t_side, kernel)


def _check_ti_ttilde(s: Session):
    """T~_i and T_i on every basis F-word and E-word up to the T~ degree,
    read from the word images directly.  Both routes assemble F_a K_mu E_b
    from the images of F_a and E_b by the same rows and twist, so this
    covers every monomial; a few mixed monomials run that assembly."""
    d = s.datum
    weights = _weights_upto(d, s.ttilde_degree)
    words = [w for nu in weights for w in fa.weight_basis(d, nu).basis_words]
    mixed = [k for k in _u_monomial_keys(d, 2, _mu_samples(d)) if k[0] and k[2]]
    for i in d.vertices:
        for w in words:
            for kind, sign in (("F", "minus"), ("E", "plus")):
                got = sym._t_tilde_word(d, i, sign, w)
                want = sym._word_image(d, i, kind, w, False)
                _expect(f"T~_{i} vs T_{i} on {kind}{w}", got, want)
        for key in mixed:
            x = ua.UElement(d, {key: ONE})
            got = sym.t_tilde_apply(i, x)
            _expect(f"T~_{i} vs T_{i} on", got, sym.ti_apply(i, x), x)


def _check_ti_weight_transport(s: Session):
    d = s.datum
    for i in d.vertices:
        for nu in _weights_upto(d, min(3, s.weight_bound)):
            for x in _basis_elements(d, nu):
                img = sym.ti_apply(i, ua.embed_plus(x))
                want = d.reflect_dim(i, nu)
                for key in img.terms:
                    got = ua.u_degree(d, key)
                    _expect(f"degree of {key} in T_{i} of", got, want, x)
        for mu in _mu_samples(d):
            k = ua.UElement.K(d, mu)
            want = ua.UElement.K(d, d.reflect_coweight(i, mu))
            _expect(f"T_{i} on", sym.ti_apply(i, k), want, k)


def _check_ti_calibration(s: Session):
    """T_i on the divided powers at i against their closed forms
    (Lusztig, Introduction to Quantum Groups, 37.1.3), which fix the
    twist that reassembles the decomposition route:
    T_i(F_i^(r)) = (-1)^r v^(r(r-1)) K_(-r h_i) E_i^(r) and
    T_i(E_i^(r)) = (-1)^r v^-(r(r-1)) F_i^(r) K_(r h_i)."""
    d = s.datum
    for i in d.vertices:
        h = d.unit_vec(i)
        for r in range(s.ttilde_degree + 1):
            power = fa.theta_divided(d, i, r)
            sign = MINUS_ONE if r % 2 else ONE
            k = r * (r - 1)
            want = ua.u_mul(ua.UElement.K(d, scale_vec(-r, h)), ua.embed_plus(power))
            got = sym._divided_image(d, i, "minus", r)
            _expect(f"T_{i}(F{i}^({r}))", got, want.scale(sign * v_pow(k)))
            want = ua.u_mul(ua.embed_minus(power), ua.UElement.K(d, scale_vec(r, h)))
            got = sym._divided_image(d, i, "plus", r)
            _expect(f"T_{i}(E{i}^({r}))", got, want.scale(sign * v_pow(-k)))


SUITE_TI = (
    ("ti-generator-formulas", _check_ti_tables),
    ("ti-inverse-identity", _check_ti_inverse),
    ("ti-homomorphism", _check_ti_homomorphism),
    ("ti-relation-preservation", _check_ti_relation_preservation),
    ("ti-subalgebra-equivalence", _check_ti_subalgebra),
    ("ti-decomposition-route", _check_ti_ttilde),
    ("ti-weight-transport", _check_ti_weight_transport),
    ("ti-twist-calibration", _check_ti_calibration),
)


def _check_braid(s: Session, i: int, j: int):
    a = s.datum.a(i, j)
    if a not in (-1, 0):
        raise Skip(f"a_ij = {a} has infinite braid order")
    for g, lhs, rhs in sym.braid_sides(s.datum, i, j):
        _expect(f"braid relation of T_{i}, T_{j} on", lhs, rhs, g)


def suite_braid(s: Session) -> list[CheckResult]:
    """One row per pair of vertices, so the table is built from the datum."""
    d = s.datum
    pairs = [(i, j) for i in d.vertices for j in d.vertices if i < j]
    if not pairs:
        return [CheckResult("braid-vacuous", "pass", 0, "rank 1: nothing to check")]
    return [_run(f"braid-{i}-{j}", _check_braid, s, i, j) for i, j in pairs]


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
                points = q ** hall.e_v_dimension(quiver, dims)
                _expect(f"{i}-strata of E_{dims} at q={q}", sum(counts), points)


def _check_hall_orbits(s: Session):
    quiver = s.datum.quiver
    for q in s.hall_qs:
        for dims in dims_upto(s.hall_dims()):
            classes = hall.class_points(quiver, q, dims, s.budget)
            total = sum(size for _rep, size in classes)
            points = q ** hall.e_v_dimension(quiver, dims)
            _expect(f"orbits of E_{dims} at q={q}", total, points)
            order = hall.group_order(q, dims)
            for rep, size in classes:
                _expect(f"|G_{dims}| mod orbit size at q={q} of", order % size, 0, rep)


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
                # a case builds both sides' class tables; every budget is
                # met, in the order of the work, before any of it is done
                hall.require_class_budget(quiver, q, dims, s.budget)
                hall.require_class_budget(reversed_quiver, q, target, s.budget)
                cases.append((q, i, reversed_quiver, dims, target))
    for q, i, reversed_quiver, dims, target in cases:
        zero_classes = [
            rep
            for rep, _size in hall.class_points(quiver, q, dims, s.budget)
            if hall.stratum_index(hall.QuiverRep(quiver, q, dims, rep), i) == 0
        ]
        images = set()
        for rep in zero_classes:
            y = hall.bgp_reflect(i, hall.QuiverRep(quiver, q, dims, rep))
            where = f"sigma_{i}({rep}) at q={q}"
            _expect(f"dims of {where}", y.dims, target)
            _expect(f"{i}-stratum of {where}", hall.stratum_index(y, i), 0)
            # the class key is a complete invariant: distinct keys, distinct classes
            images.add(hall.class_key(y, s.budget))
        _expect(f"sigma_{i} images of {dims} at q={q}", len(images), len(zero_classes))
        other = [
            rep
            for rep, _size in hall.class_points(reversed_quiver, q, target, s.budget)
            if hall.stratum_index(hall.QuiverRep(reversed_quiver, q, target, rep), i)
            == 0
        ]
        _expect(f"{i}-stratum 0 of {target} at q={q}", len(other), len(images))


def _check_hall_assoc(s: Session):
    quiver = s.datum.quiver
    q = 4
    simples = {i: hall.HallElement.simple(quiver, q, i) for i in quiver.vertices}
    for i, a in simples.items():
        for j, b in simples.items():
            for k, c in simples.items():
                lhs = hall.hall_product(hall.hall_product(a, b, s.budget), c, s.budget)
                rhs = hall.hall_product(a, hall.hall_product(b, c, s.budget), s.budget)
                _expect(f"(S{i} S{j}) S{k} at q={q}", lhs, rhs)


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
            at_v = ((w, c.eval_at(v_num)) for w, c in rel.terms.items())

            def word(w):
                return hall.hall_word(quiver, q, w, s.budget).terms.items()

            zero = hall.HallElement(quiver, q)
            _expect(f"serre({i},{j}) at q={q}", zero._like(linear(at_v, word)), zero)


def _hall_agreement(quiver: Quiver, bound: tuple, budget: int) -> None:
    """Both sides of specialize_compare on every pair of nonzero weights
    whose sum stays within bound."""
    arrows = quiver.arrows
    for nu_a in dims_upto(bound):
        for nu_b in dims_upto(bound):
            total = add_vec(nu_a, nu_b)
            if any(t > b for t, b in zip(total, bound)):
                continue
            if not any(nu_a) or not any(nu_b):
                continue
            report = hall.specialize_compare(quiver, nu_a, nu_b, 4, budget)
            for w1, w2, lhs, rhs in report:
                _expect(f"th{w1} th{w2} on {arrows}", lhs, rhs)


def _check_hall_agreement(s: Session):
    _hall_agreement(s.datum.quiver, s.hall_dims(), s.budget)


def _check_hall_orientation(s: Session):
    d = s.datum
    bound = s.hall_dims()
    small = tuple(min(1, b) for b in bound) if d.rank > 2 else bound
    for quiver in _orientations(d.quiver):
        _hall_agreement(quiver, small, s.budget)


SUITE_HALL = (
    ("hall-strata-partition", _check_hall_partition),
    ("hall-orbit-stabilizer", _check_hall_orbits),
    ("hall-bgp-bijection", _check_hall_bgp),
    ("hall-product-associative", _check_hall_assoc),
    ("hall-serre-specialized", _check_hall_serre),
    ("hall-structure-agreement", _check_hall_agreement),
    ("hall-orientation-independence", _check_hall_orientation),
)


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
    """The generator pairing against its closed form
    (th_i^+, th_j^-) = delta_ij (-1)/(v - v^-1)."""
    d = s.datum
    c = -(v_pow(1) - v_pow(-1)).inverse()
    for i in d.vertices:
        plus = dbl.HalfElement.generator(d, "plus", i)
        for j in d.vertices:
            got = dbl.pairing_phi(plus, dbl.HalfElement.generator(d, "minus", j))
            _expect(f"(th{i}+, th{j}-)", got, c if i == j else ZERO)


def _check_double_cross(s: Session):
    d = s.datum
    dd = (v_pow(1) - v_pow(-1)).inverse()
    for i in d.vertices:
        for j in d.vertices:
            plus = dbl.DoubleElement.plus_of(d, fa.FElement.generator(d, i))
            minus = dbl.DoubleElement.minus_of(d, fa.FElement.generator(d, j))
            got = dbl.double_mul(plus, minus) - dbl.double_mul(minus, plus)
            want = dbl.DoubleElement(d)
            if i == j:
                want = (
                    dbl.DoubleElement.torus(d, d.unit_vec(i))
                    - dbl.DoubleElement.torus(d, tuple(-x for x in d.unit_vec(i)))
                ).scale(dd)
            _expect("commutator of", got, want, plus, minus)


def _check_double_iso(s: Session):
    d = s.datum
    gens = _double_generators(d)
    for a in gens:
        for b in gens:
            lhs = dbl.iso_lambda(dbl.double_mul(a, b))
            rhs = ua.u_mul(dbl.iso_lambda(a), dbl.iso_lambda(b))
            _expect("lambda on the product of", lhs, rhs, a, b)
    # a few degree-2 and degree-3 samples along the triangular basis
    keys = _u_monomial_keys(d, 3, [d.zero_vec(), d.unit_vec(d.vertices[0])])
    sample = [dbl.DoubleElement(d, {k: ONE}) for k in keys[:12]]
    for a in sample:
        for b in sample[:6]:
            lhs = dbl.iso_lambda(dbl.double_mul(a, b))
            rhs = ua.u_mul(dbl.iso_lambda(a), dbl.iso_lambda(b))
            _expect("lambda on the product of", lhs, rhs, a, b)


def _half_to_u(datum: CartanDatum, sign: str, x: dbl.HalfElement) -> ua.UElement:
    embed = ua.embed_plus if sign == "plus" else ua.embed_minus

    def image(key):
        mu, word = key
        w = embed(fa.FElement(datum, {word: ONE}))
        return ua.u_mul(ua.UElement.K(datum, mu), w).terms.items()

    return ua.UElement(datum)._like(linear(x.terms.items(), image))


def _check_double_delta_match(s: Session):
    d = s.datum
    samples = []
    for nu in _weights_upto(d, 2):
        if any(nu):
            for x in _basis_elements(d, nu):
                samples.append(x)
    for sign, emb in (("plus", ua.embed_plus), ("minus", ua.embed_minus)):
        for x in samples:
            td = dbl.half_delta(sign, dbl.HalfElement.of_f(d, sign, x))

            def legs(key):
                left, right = (
                    _half_to_u(d, sign, dbl.HalfElement(d, sign, {k: ONE})).terms
                    for k in key
                )
                return (
                    ((ka, kb), ca * cb)
                    for ka, ca in left.items()
                    for kb, cb in right.items()
                )

            got = linear(td.terms.items(), legs)
            _expect(f"Delta on the {sign} image of", got, ua.delta(emb(x)).terms, x)


def _check_double_antipode_match(s: Session):
    d = s.datum
    for sign, emb in (("plus", ua.embed_plus), ("minus", ua.embed_minus)):
        for nu in _weights_upto(d, 2):
            if not any(nu):
                continue
            for x in _basis_elements(d, nu):
                hx = dbl.HalfElement.of_f(d, sign, x)
                got = _half_to_u(d, sign, dbl.half_antipode(sign, hx))
                _expect(f"S on the {sign} image of", got, ua.antipode(emb(x)), x)


def _check_double_coassoc(s: Session):
    d = s.datum
    for sign in ("plus", "minus"):
        samples = [dbl.HalfElement.generator(d, sign, i) for i in d.vertices]
        for nu in _weights_upto(d, 2):
            if height(nu) == 2:
                for x in _basis_elements(d, nu):
                    samples.append(dbl.HalfElement.of_f(d, sign, x))

        def delta_of(k):
            return dbl.half_delta(sign, dbl.HalfElement(d, sign, {k: ONE})).terms

        def delta_left(key):
            return (((a, b, key[1]), c) for (a, b), c in delta_of(key[0]).items())

        def delta_right(key):
            return (((key[0], a, b), c) for (a, b), c in delta_of(key[1]).items())

        for x in samples:
            dx = dbl.half_delta(sign, x).terms.items()
            left, right = linear(dx, delta_left), linear(dx, delta_right)
            _expect("coassociativity on", left, right, x)


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
                _expect("phi(a, b b') on", lhs, total, a, b, bp)
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
                _expect("phi(a a', b) on", lhs, total, a, ap, b)
    # antipode compatibility at generator level
    for i in d.vertices:
        a = dbl.HalfElement.generator(d, "plus", i)
        b = dbl.HalfElement.generator(d, "minus", i)
        lhs = dbl.pairing_phi(dbl.half_antipode("plus", a), dbl.half_antipode("minus", b))
        _expect("phi(S a, S b) on", lhs, dbl.pairing_phi(a, b), a, b)


def _check_double_torus_consistency(s: Session):
    d = s.datum
    x = dbl.DoubleElement.plus_of(d, fa.FElement.generator(d, d.vertices[0]))
    for mu in _mu_samples(d):
        k = dbl.DoubleElement.torus(d, mu)
        i = d.vertices[0]
        lhs = dbl.double_mul(k, x)
        rhs = dbl.double_mul(x, k).scale(v_pow(d.alpha_eval(i, mu)))
        _expect(f"moving p(th{i}) past", lhs, rhs, k)


SUITE_DOUBLE = (
    ("double-pairing-calibration", _check_double_calibration),
    ("double-cross-relation", _check_double_cross),
    ("double-iso-homomorphism", _check_double_iso),
    ("double-delta-match", _check_double_delta_match),
    ("double-antipode-match", _check_double_antipode_match),
    ("double-coassociativity", _check_double_coassoc),
    ("double-pairing-axioms", _check_double_pairing_axioms),
    ("double-torus-consistency", _check_double_torus_consistency),
)


SUITES = {
    "f": SUITE_F,
    "u": SUITE_U,
    "ti": SUITE_TI,
    "braid": suite_braid,
    "hall": SUITE_HALL,
    "double": SUITE_DOUBLE,
}


def run_suite(session: Session, name: str) -> list[CheckResult]:
    key = name.removeprefix("verify-")
    if key != "all" and key not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from "
            + ", ".join(sorted(SUITES)) + ", all"
        )
    out = []
    for rows in SUITES.values() if key == "all" else (SUITES[key],):
        if callable(rows):  # braid builds its rows from the datum
            out.extend(rows(session))
        else:
            out.extend(_run(label, check, session) for label, check in rows)
    return out
