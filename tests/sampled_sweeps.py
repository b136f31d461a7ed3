"""Sampled sweeps of the identities that the octonion, triality and norms
suites decide on a basis (g2kit.suites), kept as oracles for the tests.
A sweep draws random elements with multi-coefficient scalars, so it runs
the truncating Scalar arithmetic that the exact +-1 basis scalars of the
decisions never reach; a pass says only that no draw was a
counterexample.  Each returns None or a counterexample string, as a
suite check does."""

from fractions import Fraction

from g2kit import fixtures
from g2kit.endo import is_derivation, random_so
from g2kit.errors import G2KitError
from g2kit.norms import extend_sl3
from g2kit.octonions import (Octonion, anisotropic_plane, bilinear_f,
                             hyperbolic_plane, octonion_unit, random_octonion)
from g2kit.triality import HermitianModel, random_g2_lie, solve_lie_triple


def sweep(count, one):
    for k in range(count):
        bad = one()
        if bad is not None:
            return f"sample {k}: {bad}"
    return None


def expect(pred, value):
    try:
        return None if pred(value) else repr(value)
    except G2KitError as exc:
        return f"{exc} at {value!r}"


def octonion_sweeps(cfg, rng):
    """(name, thunk) for the five octonion identities, drawing from rng in
    the order and numbers the octonion suite once did."""
    unit = octonion_unit(cfg)
    yield "unit-law", lambda: sweep(
        500, lambda: expect(lambda x: unit * x == x and x * unit == x,
                            random_octonion(cfg, rng)))
    yield "norm-multiplicative", lambda: sweep(
        500, lambda: expect(
            lambda xy: (xy[0] * xy[1]).norm() == xy[0].norm() * xy[1].norm(),
            (random_octonion(cfg, rng), random_octonion(cfg, rng))))
    yield "conjugation", lambda: sweep(
        500, lambda: expect(
            lambda xy: (xy[0] * xy[1]).conj() == xy[1].conj() * xy[0].conj()
            and xy[0].conj().conj() == xy[0],
            (random_octonion(cfg, rng), random_octonion(cfg, rng))))
    yield "f-transfer", lambda: sweep(
        200, lambda: expect(
            lambda xyz: bilinear_f(xyz[0] * xyz[1], xyz[2])
            == bilinear_f(xyz[1], xyz[0].conj() * xyz[2])
            and bilinear_f(xyz[0] * xyz[1], xyz[2])
            == bilinear_f(xyz[0], xyz[2] * xyz[1].conj()),
            tuple(random_octonion(cfg, rng) for _ in range(3))))
    yield "alternative-laws", lambda: sweep(
        500, lambda: expect(
            lambda xy: xy[0] * (xy[0] * xy[1]) == (xy[0] * xy[0]) * xy[1]
            and (xy[1] * xy[0]) * xy[0] == xy[1] * (xy[0] * xy[0]),
            (random_octonion(cfg, rng), random_octonion(cfg, rng))))


def fixed_points_sweep(cfg, rng, count):
    """Derivation iff the solver's triple is diagonal, on random g2 and
    so(V) elements."""
    for k in range(count):
        if k % 2 == 0:
            x = random_g2_lie(cfg, rng, width=1, vmin=0, vmax=1)
        else:
            x = random_so(cfg, rng, width=1, vmin=0, vmax=1)
        tri = solve_lie_triple(x)
        diag = tri.t2 == x and tri.t3 == x
        if diag != is_derivation(x):
            return f"fixed-point mismatch at sample {k}"
    return None


def barwedge_sweep(cfg, rng, count):
    """The hermitian product decomposition on random v0 + w pairs."""
    d = anisotropic_plane(cfg)
    model = HermitianModel(d)
    one = octonion_unit(cfg)
    c = d.traceless_generator()

    def rand_v0():
        return (one.scale(cfg.random(rng, width=1, vmin=0, vmax=0))
                + c.scale(cfg.random(rng, width=1, vmin=0, vmax=0)))

    def rand_w():
        out = Octonion(cfg, [cfg.zero()] * 8)
        for bb in model.space.basis:
            out = out + rand_v0() * bb
        return out

    for k in range(count):
        v1, v2, w1, w2 = rand_v0(), rand_v0(), rand_w(), rand_w()
        if model.product_via_decomposition(v1, w1, v2, w2) \
                != (v1 + w1) * (v2 + w2):
            return f"product decomposition failed at sample {k}"
    return None


def maximinorante_sweep(cfg, rng, count):
    """alpha(x) + alpha(y) <= v(f(x, y)) for the thirds norm on random
    pairs."""
    alpha = extend_sl3(fixtures.wplus_norm(
        cfg, [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)]),
        hyperbolic_plane(cfg))
    for _ in range(count):
        x = random_octonion(cfg, rng)
        y = random_octonion(cfg, rng)
        fv = bilinear_f(x, y)
        if x.is_zero or y.is_zero or fv.is_zero:
            continue
        if alpha.eval(x) + alpha.eval(y) > fv.valuation:
            return f"maximinorante at {x!r}, {y!r}"
    return None
