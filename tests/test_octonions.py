"""Tests for the split octonion algebra and its composition subalgebras."""

import random

import pytest

from g2kit.errors import ConfigMismatchError, DoublingError, PairError
from g2kit.octonions import (Octonion, anisotropic_plane, basis_octonion,
                             bilinear_f, center_subalgebra,
                             division_quaternion, double, from_coords,
                             hyperbolic_plane, idempotents_from_isotropic_pair,
                             octonion_from_json, octonion_unit,
                             plane_subalgebra, random_isotropic_pair,
                             random_octonion, ramified_plane,
                             split_polarization, standard_idempotents,
                             standard_split_dim4)
from g2kit.scalars import FieldConfig

CFG = FieldConfig(5, 8)
E = {lbl: basis_octonion(CFG, lbl) for lbl in (-4, -1, -2, -3, 3, 2, 1, 4)}
ONE = octonion_unit(CFG)


def test_unit_law_random():
    rng = random.Random(1)
    for _ in range(100):
        x = random_octonion(CFG, rng)
        assert ONE * x == x
        assert x * ONE == x


def test_table_spot_values():
    assert E[1] * E[2] == -E[-3]
    assert E[-1] * E[-2] == -E[3]
    assert E[-4] * E[-4] == E[-4]
    assert E[1] * E[-1] == -E[-4]
    assert E[-4] * E[1] == E[1]
    assert (E[1] * E[4]) == E[1]
    assert (E[4] * E[1]).is_zero


def test_norm_isotropic_basis():
    for i in (1, 2, 3, -1, -2, -3):
        assert E[i].norm().is_zero


def test_bilinear_pairing():
    for i in (1, 2, 3, 4):
        assert bilinear_f(E[i], E[-i]) == CFG.one()
        assert bilinear_f(E[-i], E[i]) == CFG.one()
    assert bilinear_f(E[1], E[2]).is_zero


def test_norm_multiplicative_random():
    rng = random.Random(2)
    for _ in range(500):
        x = random_octonion(CFG, rng)
        y = random_octonion(CFG, rng)
        assert (x * y).norm() == x.norm() * y.norm()


def test_conj_involutive_antimultiplicative():
    rng = random.Random(3)
    for _ in range(500):
        x = random_octonion(CFG, rng)
        y = random_octonion(CFG, rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == y.conj() * x.conj()


def test_norm_via_conj():
    rng = random.Random(4)
    for _ in range(100):
        x = random_octonion(CFG, rng)
        q = x.norm()
        assert x * x.conj() == ONE.scale(q)
        assert x.conj() * x == ONE.scale(q)


def test_f_associativity_transfer():
    rng = random.Random(5)
    for _ in range(200):
        x, y, z = (random_octonion(CFG, rng) for _ in range(3))
        assert bilinear_f(x * y, z) == bilinear_f(y, x.conj() * z)
        assert bilinear_f(x * y, z) == bilinear_f(x, z * y.conj())


def test_alternative_laws():
    rng = random.Random(6)
    for _ in range(500):
        x = random_octonion(CFG, rng)
        y = random_octonion(CFG, rng)
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)


def test_doubling_chain_to_full():
    d = center_subalgebra(CFG)
    for a in (E[1] + E[-1], E[2] + E[-2], E[3] - E[-3]):
        d = double(d, a)
    assert d.dim == 8
    assert d.kind == "full"


def test_doubling_rejects_isotropic():
    d = center_subalgebra(CFG)
    with pytest.raises(DoublingError):
        double(d, E[1])
    with pytest.raises(DoublingError):
        double(double(d, E[1] + E[-1]), E[1] + E[-1])


def test_doubled_dim2_kinds():
    # p = 5: -1 = 4 is a square, so F1 + F(e_1 + e_-1) is split
    d = double(center_subalgebra(CFG), E[1] + E[-1])
    assert d.kind == "split-dim2"
    cfg7 = FieldConfig(7, 8)
    e1 = basis_octonion(cfg7, 1)
    em1 = basis_octonion(cfg7, -1)
    d7 = double(center_subalgebra(cfg7), e1 + em1)
    assert d7.kind == "field-dim2"  # -1 is not a square mod 7


def test_division_quaternion_fixture():
    d = division_quaternion(CFG)
    assert d.kind == "division-dim4"
    assert d.is_composition()
    # no isotropic vector among its basis (necessary condition)
    for b in d.basis:
        assert not b.norm().is_zero


def test_idempotents_from_pair():
    ep, em, c = idempotents_from_isotropic_pair(E[1], E[-1])
    assert ep == E[-4]
    assert em == E[4]
    assert ep * ep == ep
    assert em * em == em
    assert (ep * em).is_zero
    assert c * E[1] == E[1]
    assert c * E[-1] == -E[-1]


def test_idempotents_preconditions():
    with pytest.raises(PairError):
        idempotents_from_isotropic_pair(E[1], E[-2])
    with pytest.raises(PairError):
        idempotents_from_isotropic_pair(ONE, E[-1])


def test_idempotents_random_pairs():
    rng = random.Random(7)
    for _ in range(100):
        h, hp = random_isotropic_pair(CFG, rng)
        ep, em, c = idempotents_from_isotropic_pair(h, hp)
        assert (h + hp).norm() == CFG.one()
        assert (h - hp).norm() == -CFG.one()
        assert (h + hp) * (h - hp) == hp * h - h * hp
        assert -(hp * h) - h * hp == ONE
        assert ep * ep == ep and em * em == em
        assert c * h == h and c * hp == -hp
        # independence of generator scaling
        lam = CFG.random(rng, nonzero=True)
        ep2, em2, c2 = idempotents_from_isotropic_pair(
            h.scale(lam), hp.scale(lam.inv()))
        assert ep2 == ep and em2 == em and c2 == c


def test_split_polarization_canonical():
    d = hyperbolic_plane(CFG)
    wp, wm = split_polarization(d)
    for lbl in (1, 2, 3):
        assert wp.contains(E[lbl].coords)
        assert wm.contains(E[-lbl].coords)
    # isotropy of W+ and product dropping into W-
    wp_oct = [Octonion(CFG, r) for r in wp.rows]
    for x in wp_oct:
        for y in wp_oct:
            assert bilinear_f(x, y).is_zero
            assert wm.contains((x * y).coords)


def test_polarization_of_generic_split_plane():
    # split plane with a non-canonical generator
    c0 = E[1] + E[-1].scale(CFG.from_int(4))  # Q = 4, -Q = 1 square
    d = plane_subalgebra(CFG, c0)
    assert d.kind == "split-dim2"
    wp, wm = split_polarization(d)
    assert wp.dim == 3 and wm.dim == 3
    ep, em = standard_idempotents(d)
    assert ep * ep == ep and (ep * em).is_zero


def test_each_double_is_composition():
    d = center_subalgebra(CFG)
    for a in (E[1] + E[-1], E[2] + E[-2], E[3] - E[-3]):
        d = double(d, a)
        assert d.is_composition()


def test_anisotropic_and_ramified_planes():
    d = anisotropic_plane(CFG)
    assert d.kind == "field-dim2"
    assert d.is_composition()
    r = ramified_plane(CFG)
    assert r.kind == "field-dim2"
    assert r.is_composition()


def test_standard_split_dim4():
    d = standard_split_dim4(CFG)
    assert d.is_composition()
    assert d.kind == "split-dim4"


def test_json_roundtrip():
    rng = random.Random(8)
    x = random_octonion(CFG, rng)
    assert octonion_from_json(CFG, x.to_json()) == x
    unr = FieldConfig(7, 8, "unramified")
    z = random_octonion(unr, rng)
    assert octonion_from_json(unr, z.to_json()) == z
    # fixed basis order in serialization
    assert E[-4].to_json() == ["1", "0", "0", "0", "0", "0", "0", "0"]
    assert E[4].to_json() == ["0", "0", "0", "0", "0", "0", "0", "1"]


def test_scale_skips_zero_coordinates_but_checks_the_config():
    c7 = FieldConfig(7, 8)
    zero = Octonion(CFG, [CFG.zero()] * 8)
    with pytest.raises(ConfigMismatchError):
        zero.scale(c7.one())
    with pytest.raises(ConfigMismatchError):
        E[1].scale(c7.from_int(3))
    x = from_coords(CFG, {1: 2, -3: CFG.t()})
    lam = CFG.one() + CFG.t()
    assert x.scale(lam) == from_coords(CFG, {1: lam * 2, -3: lam * CFG.t()})
    assert x.scale(0).is_zero and zero.scale(lam) == zero
