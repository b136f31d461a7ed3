"""Kinds of composition subalgebras, derived from the span.

Regression tests at the primes where the old kind heuristics gave wrong
labels, and a sweep of doubled planes against an independent oracle:
Springer's theorem on the diagonal <1, Q(c), Q(a), Q(c)Q(a)> of D + Da,
with the residue forms decided by brute force.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from g2kit.errors import DomainError, WitnessError
from g2kit.linalg import Subspace
from g2kit.norms import NormFn, extend_dim4
from g2kit.octonions import (GRAM, IDX, anisotropic_plane,
                             basis_octonion, bilinear_f, division_quaternion,
                             double, octonion_unit, plane_subalgebra,
                             ramified_plane)
from g2kit.scalars import FieldConfig, hilbert_symbol
from g2kit.strata import _kernel_subalgebra


def _e(cfg, lbl):
    return basis_octonion(cfg, lbl)


# -- regressions ---------------------------------------------------------------

def test_doubled_ramified_plane_kinds_p7():
    # -1 is not a square mod 7: Q(a) = 3 = -4 is a norm from F[c0] although
    # neither Q(a) nor Q(a) Q(c0) is a square
    cfg = FieldConfig(7, 8)
    d = ramified_plane(cfg)
    a = _e(cfg, 2) + _e(cfg, -2).scale(3)
    split = double(d, a)
    assert split.kind == "split-dim4"
    assert (octonion_unit(cfg).scale(2) + a).norm().is_zero
    assert double(d, _e(cfg, 2) + _e(cfg, -2)).kind == "division-dim4"


def test_kernel_algebra_kind_p5():
    # <1, i, j, ij>: no basis vector and no pairwise sum of its reduced basis
    # is isotropic, but i + 2j is
    cfg = FieldConfig(5, 8)
    i = _e(cfg, 1) + _e(cfg, -1).scale(cfg.t())
    j = _e(cfg, 2) + _e(cfg, -2).scale(cfg.t())
    assert (i + j.scale(2)).norm().is_zero
    rows = [x.coords for x in (octonion_unit(cfg), i, j, i * j)]
    assert _kernel_subalgebra(cfg, Subspace(cfg, 8, rows)).kind == "split-dim4"


@pytest.mark.parametrize("p", [5, 7])
def test_anisotropic_plane_and_division_quaternion_unramified(p):
    # every element of F_p is a square in F_{p^2}: mu must leave F_p
    cfg = FieldConfig(p, 6, "unramified")
    d = anisotropic_plane(cfg)
    assert d.kind == "field-dim2"
    gamma = -d.traceless_generator().norm()
    assert gamma.val == 0 and not gamma.is_square()
    assert division_quaternion(cfg).kind == "division-dim4"


@pytest.mark.parametrize("p", [5, 7])
def test_anisotropic_plane_keeps_the_base_field_search(p):
    # the first mu in 2..p-1 with 1 - mu^2 a non-square, as before
    cfg = FieldConfig(p, 6)
    mu = next(m for m in range(2, p) if pow(1 - m * m, (p - 1) // 2, p) == p - 1)
    assert anisotropic_plane(cfg).basis[1][1] == cfg.from_int(mu)


@pytest.mark.parametrize("p", [5, 7])
def test_ramified_plane_is_ramified_over_the_ramified_extension(p):
    # Q(c) = s, not t = s^2, which is a square there
    cfg = FieldConfig(p, 6, "ramified")
    d = ramified_plane(cfg)
    assert d.kind == "field-dim2"
    assert d.traceless_generator().norm().val % 2 == 1
    assert division_quaternion(cfg).kind == "division-dim4"
    base = FieldConfig(p, 6)
    assert ramified_plane(base).traceless_generator().norm() == base.t()


def test_non_composition_kernel_is_a_witness_error():
    cfg = FieldConfig(5, 8)
    rows = [x.coords for x in (octonion_unit(cfg), _e(cfg, 1), _e(cfg, -1),
                               _e(cfg, 2))]
    with pytest.raises(WitnessError, match="not a composition subalgebra"):
        _kernel_subalgebra(cfg, Subspace(cfg, 8, rows))


def test_extend_dim4_takes_split_branch_p7():
    # the split label sends a non-Witt basis to the Witt-basis check, not to
    # the anisotropic branch's duality check
    cfg = FieldConfig(7, 8)
    d4 = double(ramified_plane(cfg), _e(cfg, 2) + _e(cfg, -2).scale(3))
    alpha_w = NormFn(cfg, d4.orthogonal_basis_octonions(),
                     [Fraction(1, 3)] * 4)
    with pytest.raises(DomainError, match="Witt basis"):
        extend_dim4(alpha_w, d4)


# -- the Springer oracle ---------------------------------------------------------

def _residue_elements(cfg):
    p = cfg.p
    if cfg.extension == "unramified":
        return [cfg.residue.coerce((x, y)) for x in range(p) for y in range(p)]
    return list(range(p))


@functools.lru_cache(maxsize=None)
def _residue_isotropic(cfg, units):
    """Brute force over F_q^r; a form of rank >= 3 over a finite field is
    isotropic (Chevalley-Warning)."""
    if len(units) != 2:
        return len(units) >= 3
    r = cfg.residue
    u, v = units
    return any(r.is_zero(r.add(r.mul(u, r.mul(x, x)), r.mul(v, r.mul(y, y))))
               for x in _residue_elements(cfg) for y in _residue_elements(cfg)
               if not (r.is_zero(x) and r.is_zero(y)))


def springer_isotropic(diag):
    """<pi^v_i u_i> is isotropic iff the residue form of its even-valuation
    entries or that of its odd-valuation entries is (Springer)."""
    cfg = diag[0].cfg
    return any(_residue_isotropic(cfg, tuple(d.coeffs[0] for d in diag
                                             if d.val % 2 == parity))
               for parity in (0, 1))


def _residue_non_square(cfg):
    r = cfg.residue
    return next(x for x in _residue_elements(cfg)
                if not r.is_zero(x) and not r.is_square(x))


def _plane_generator(cfg, minus_q):
    """c = e_1 + m e_-1, traceless, with -Q(c) = minus_q."""
    g = GRAM[IDX[1]][IDX[-1]]
    return _e(cfg, 1) + _e(cfg, -1).scale(-minus_q * cfg.from_int(g).inv())


SWEEP = ([FieldConfig(p, 6) for p in (5, 7, 11, 13)]
         + [FieldConfig(p, 6, ext) for p in (5, 7)
            for ext in ("unramified", "ramified")])


@pytest.mark.parametrize("cfg", SWEEP,
                         ids=lambda c: f"p{c.p}-{c.extension}")
def test_kind_sweep_against_springer(cfg):
    one = octonion_unit(cfg)
    pi = cfg.uniformizer()
    planes = {"split": cfg.one(),
              "unramified": cfg.monomial(_residue_non_square(cfg), 0),
              "ramified": pi}
    small = [cfg.zero(), cfg.one(), cfg.from_int(2), pi]
    seen = set()
    for name, minus_q in planes.items():
        c = _plane_generator(cfg, minus_q)
        d = plane_subalgebra(cfg, c)
        want = "split-dim2" if name == "split" else "field-dim2"
        assert springer_isotropic([one.norm(), c.norm()]) == (name == "split")
        assert d.kind == want
        for x, y, k in itertools.product((1, 2), (1, 3), (0, 1)):
            a = _e(cfg, 2).scale(x) + _e(cfg, -2).scale(cfg.monomial(y, k))
            d4 = double(d, a)
            basis = [one, c, a, c * a]
            assert [b.coords for b in d4.basis] == [b.coords for b in basis]
            for u, w in itertools.combinations(basis, 2):
                assert bilinear_f(u, w).is_zero
            split = springer_isotropic([b.norm() for b in basis])
            assert d4.kind == ("split-dim4" if split else "division-dim4"), \
                (name, x, y, k)
            seen.add(d4.kind)
            if split:
                continue
            # no isotropic vector of small support in a division algebra
            for co in itertools.product(small, repeat=4):
                v = sum((b.scale(s) for b, s in zip(basis[1:], co[1:])),
                        one.scale(co[0]))
                assert v.is_zero or not v.norm().is_zero, (name, co)
    assert seen == {"split-dim4", "division-dim4"}


@pytest.mark.parametrize("cfg", SWEEP,
                         ids=lambda c: f"p{c.p}-{c.extension}")
def test_hilbert_symbol_against_springer(cfg):
    # (a, b) = 1 iff z^2 = a x^2 + b y^2 has a nonzero solution
    pi = cfg.uniformizer()
    residues = _residue_elements(cfg)[1:5] + [_residue_non_square(cfg)]
    units = [cfg.monomial(u, 0) for u in residues]
    for a, b in itertools.product(units + [u * pi for u in units], repeat=2):
        want = 1 if springer_isotropic([a, b, -cfg.one()]) else -1
        assert hilbert_symbol(a, b) == want == hilbert_symbol(b, a)
