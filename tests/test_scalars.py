"""Tests for the truncated Laurent-series field model."""

import math
import random
from fractions import Fraction

import pytest

from g2kit.errors import ConfigMismatchError, DomainError, PrecisionError
from g2kit.scalars import FieldConfig, Scalar, parse_scalar
from oracles import truncate

CFG = FieldConfig(5, 8)


def test_config_validation():
    with pytest.raises(DomainError):
        FieldConfig(4, 8)
    with pytest.raises(DomainError):
        FieldConfig(3, 8)
    with pytest.raises(DomainError):
        FieldConfig(5, 3)
    with pytest.raises(DomainError):
        FieldConfig(5, 8, "weird")


def test_config_json_roundtrip():
    cfg = FieldConfig(7, 10, "ramified")
    assert FieldConfig.from_json(cfg.to_json()) == cfg


def test_additive_inverse():
    t = CFG.t()
    assert (t + (-t)).is_zero


def test_residue_reduction():
    x = CFG.one() + CFG.t()
    y = CFG.from_int(CFG.p - 1)
    assert x + y == CFG.t()


@pytest.mark.parametrize("p", (5, 7, 11))
def test_quad_field_sqrt_is_the_smallest_root(p):
    """Every square of F_{p^2} gets its smallest root in (a, b) order, and
    every non-square raises; 7 and 11 are 3 mod 4."""
    from g2kit.residue import QuadField
    f = QuadField(p)
    elements = [(a, b) for a in range(p) for b in range(p)]
    roots = {}
    for r in elements:
        roots.setdefault(f.mul(r, r), r)
    assert len(roots) == (p * p + 1) // 2
    for a in elements:
        if a in roots:
            assert f.sqrt(a) == roots[a]
            assert f.is_square(a)
        else:
            assert not f.is_square(a)
            with pytest.raises(DomainError):
                f.sqrt(a)
    assert f.sqrt(3) == f.sqrt((3, 0))


def test_leading_valuation():
    x = CFG.t(2) + CFG.t(3)
    assert x.valuation == 2
    assert CFG.zero().valuation == math.inf


def test_geometric_series_inverse():
    x = CFG.one() - CFG.t()
    inv = x.inv()
    expected = CFG.zero()
    for k in range(CFG.precision):
        expected = expected + CFG.t(k)
    assert inv == expected
    assert x * inv == CFG.one()


def test_inverse_valuation():
    assert CFG.t(3).inv().valuation == -3


def test_ramified_uniformizer():
    cfg = FieldConfig(5, 8, "ramified")
    s = cfg.uniformizer()
    assert (s * s).valuation == 1
    assert s.valuation == Fraction(1, 2)


def test_mixed_config_rejected():
    other = FieldConfig(7, 8)
    with pytest.raises(ConfigMismatchError):
        CFG.one() + other.one()


def test_valuation_laws_random():
    rng = random.Random(11)
    for _ in range(500):
        x = CFG.random(rng, nonzero=True)
        y = CFG.random(rng, nonzero=True)
        assert (x * y).valuation == x.valuation + y.valuation
        s = x + y
        assert s.valuation >= min(x.valuation, y.valuation)
        if x.valuation != y.valuation:
            assert s.valuation == min(x.valuation, y.valuation)


def test_inverse_random():
    rng = random.Random(12)
    for _ in range(500):
        x = CFG.random(rng, nonzero=True)
        assert x * x.inv() == CFG.one()
        assert x.inv() * x == CFG.one()


def test_extension_valuation_ranges():
    ram = FieldConfig(5, 8, "ramified")
    unram = FieldConfig(5, 8, "unramified")
    rng = random.Random(13)
    for _ in range(100):
        x = ram.random(rng, nonzero=True)
        assert (x.valuation * 2).denominator == 1
        y = unram.random(rng, nonzero=True)
        assert y.valuation.denominator == 1


def test_window_truncation_on_add():
    # 1 + t^(N+2): the tail is outside the common window and is dropped.
    x = CFG.one()
    y = CFG.t(CFG.precision + 2)
    assert x + y == x


def test_precision_error_on_wide_support():
    with pytest.raises(PrecisionError):
        CFG.from_coeffs(0, [1] * (CFG.precision + 1))


def test_inverse_is_window_exact():
    a = (CFG.one() - CFG.t()).inv()  # 1 + t + ... + t^(N-1)
    b = CFG.zero()
    for k in range(CFG.precision):
        b = b + CFG.t(k)
    assert a == b


def test_is_square():
    assert CFG.t(2).is_square()
    assert not CFG.t().is_square()
    assert CFG.from_int(4).is_square()
    assert not CFG.from_int(2).is_square()  # 2 is not a QR mod 5
    assert (CFG.from_int(4) + CFG.t()).is_square()


def test_sqrt_one_unit():
    x = CFG.one() + CFG.t() + CFG.monomial(3, 2)
    r = x.sqrt_one_unit()
    assert r * r == x
    assert r.coeff_at(0) == 1
    with pytest.raises(DomainError):
        CFG.from_int(4).sqrt_one_unit()


def test_truncate_and_congruent():
    """The truncate oracle, and congruence as a truncated difference."""
    x = CFG.one() + CFG.t(2) + CFG.t(5)
    assert truncate(x, 3) == CFG.one() + CFG.t(2)
    assert truncate(x - (CFG.one() + CFG.t(2)), 3).is_zero
    assert truncate(x - CFG.one(), 2).is_zero
    assert not truncate(x - (CFG.one() + CFG.t()), 2).is_zero


def test_str_parse_roundtrip():
    rng = random.Random(15)
    for _ in range(50):
        x = CFG.random(rng)
        assert parse_scalar(CFG, str(x)) == x
    ram = FieldConfig(5, 8, "ramified")
    y = ram.monomial(2, -3) + ram.one()
    assert parse_scalar(ram, str(y)) == y
    # the unramified residue digits print as a, bw and (a+bw): the "+"
    # inside (a+bw) is not a term separator
    for p in (5, 7):
        unr = FieldConfig(p, 8, "unramified")
        rng = random.Random(1)
        for _ in range(50):
            z = unr.random(rng, width=3)
            assert parse_scalar(unr, str(z)) == z
        assert parse_scalar(unr, "1w") == unr.monomial((0, 1), 0)
        assert parse_scalar(unr, "(2+3w)*t^1") == unr.monomial((2, 3), 1)
    with pytest.raises(DomainError):
        parse_scalar(CFG, "1w")


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7])
def test_parse_refuses_a_series_wider_than_the_window(p, ext):
    """A term past the window raises the PrecisionError that from_coeffs
    raises on the same series, in either order of the terms; the widest
    series that fits is read whole."""
    cfg = FieldConfig(p, 8, ext)
    u, n = cfg.uniformizer_name, cfg.precision
    for k in (n, n + 1):
        with pytest.raises(PrecisionError) as want:
            cfg.from_coeffs(0, [1] + [0] * (k - 1) + [1])
        for text in (f"1 + {u}^{k}", f"{u}^{k} + 1", f"{u}^-3 + {u}^{k - 3}"):
            with pytest.raises(PrecisionError) as got:
                parse_scalar(cfg, text)
            assert str(got.value) == str(want.value)
    fits = cfg.one() + cfg.uniformizer(n - 1)
    assert parse_scalar(cfg, f"1 + {u}^{n - 1}") == fits
    assert parse_scalar(cfg, f"{u}^{n - 1} + 1") == fits


# -- kernel oracle ------------------------------------------------------------
# The per-coefficient arithmetic that the residue fields' tuple kernels
# replaced, kept as the reference they must match digit for digit.

def _ref_build(cfg, val, coeffs):
    r = cfg.residue
    lo = 0
    while lo < len(coeffs) and r.is_zero(coeffs[lo]):
        lo += 1
    if lo == len(coeffs):
        return Scalar(cfg, 0, ())
    hi = len(coeffs)
    while r.is_zero(coeffs[hi - 1]):
        hi -= 1
    if hi - lo > cfg.precision:
        raise PrecisionError(
            f"support width {hi - lo} exceeds the {cfg.precision}-coefficient window")
    return Scalar(cfg, val + lo, tuple(coeffs[lo:hi]))


def ref_add(x, y):
    x, y = x.cfg.coerce(x), x.cfg.coerce(y)
    x._check(y)
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    r = x.cfg.residue
    m = min(x.val, y.val)
    end = m + x.cfg.precision
    hi = max(x.val + len(x.coeffs), y.val + len(y.coeffs))
    out = []
    nonzero_tail = False
    for k in range(m, hi):
        c = r.add(x.coeff_at(k), y.coeff_at(k))
        if k < end:
            out.append(c)
        elif not r.is_zero(c):
            nonzero_tail = True
    s = _ref_build(x.cfg, m, out)
    if s.is_zero and nonzero_tail:
        raise PrecisionError("sum cancels through the whole representable window")
    return s


def ref_neg(x):
    if x.is_zero:
        return x
    r = x.cfg.residue
    return Scalar(x.cfg, x.val, tuple(r.neg(c) for c in x.coeffs))


def ref_sub(x, y):
    y = x.cfg.coerce(y)
    if y.is_zero:
        x._check(y)
        return x
    return ref_add(x, ref_neg(y))


def ref_mul(x, y):
    y = x.cfg.coerce(y)
    x._check(y)
    if x.is_zero or y.is_zero:
        return x.cfg.zero()
    r = x.cfg.residue
    width = min(len(x.coeffs) + len(y.coeffs) - 1, x.cfg.precision)
    out = [r.zero()] * width
    for i, a in enumerate(x.coeffs):
        if r.is_zero(a):
            continue
        for j, b in enumerate(y.coeffs):
            if i + j >= width:
                break
            out[i + j] = r.add(out[i + j], r.mul(a, b))
    return _ref_build(x.cfg, x.val + y.val, out)


def ref_inv(x):
    r = x.cfg.residue
    n = x.cfg.precision
    c0inv = r.inv(x.coeffs[0])
    out = [c0inv] + [r.zero()] * (n - 1)
    for j in range(1, n):
        acc = r.zero()
        for k in range(1, min(j, len(x.coeffs) - 1) + 1):
            acc = r.add(acc, r.mul(x.coeffs[k], out[j - k]))
        out[j] = r.neg(r.mul(c0inv, acc))
    return _ref_build(x.cfg, -x.val, out)


def _same(got, want):
    assert isinstance(got, Scalar)
    assert (got.val, got.coeffs) == (want.val, want.coeffs), (got, want)


def _operand(rng, cfg, width, far):
    """A scalar of exactly `width` coefficients (nonzero ends)."""
    if width == 0:
        return cfg.zero()
    r = cfg.residue
    val = (rng.choice([-1, 1]) * rng.randrange(cfg.precision + 2, 3 * cfg.precision)
           if far else rng.randrange(-2, 3))
    inner = [r.random(rng) for _ in range(width - 2)]
    ends = [r.random(rng, nonzero=True) for _ in range(min(width, 2))]
    x = cfg.from_coeffs(val, ends[:1] + inner + ends[1:])
    assert len(x.coeffs) == width
    return x


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_kernels_match_per_coefficient_reference(p, ext, n):
    cfg = FieldConfig(p, n, ext)
    rng = random.Random(p * 1000 + n * 10 + len(ext))
    widths = [0, 1, 2, n]
    for _ in range(400):
        x = _operand(rng, cfg, rng.choice(widths), rng.random() < 0.25)
        y = _operand(rng, cfg, rng.choice(widths), rng.random() < 0.25)
        draw = rng.random()
        if draw < 0.15:
            y = -x                      # cancels completely
        elif draw < 0.3 and not x.is_zero:
            y = ref_add(x, cfg.monomial(1, x.val + rng.randrange(n + 2)))
        _same(x + y, ref_add(x, y))
        _same(x - y, ref_sub(x, y))
        _same(-x, ref_neg(x))
        _same(x * y, ref_mul(x, y))
        k = rng.randrange(-3 * p, 3 * p)
        _same(x + k, ref_add(x, k))
        _same(k + x, ref_add(x, k))
        _same(x - k, ref_sub(x, k))
        _same(k - x, ref_add(ref_neg(x), k))
        _same(x * k, ref_mul(x, k))
        _same(k * x, ref_mul(x, k))
        if not x.is_zero:
            _same(x.inv(), ref_inv(x))
            _same(y / x, ref_mul(y, ref_inv(x)))
        if k % p:
            _same(x / k, ref_mul(x, ref_inv(cfg.from_int(k))))


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7])
def test_a_scalar_wider_than_the_window_is_refused(p, ext):
    """Every Scalar fits its window: building one of N + 1 coefficients
    raises PrecisionError, and one of N coefficients is built."""
    for n in (4, 8):
        cfg = FieldConfig(p, n, ext)
        one, zero = cfg.residue.one(), cfg.residue.zero()
        with pytest.raises(PrecisionError, match=(
                f"support width {n + 1} exceeds the {n}-coefficient window")):
            Scalar(cfg, 0, (one,) + (zero,) * (n - 1) + (one,))
        assert len(Scalar(cfg, 0, (one,) * n).coeffs) == n


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7])
def test_sums_inside_the_window_never_raise(p, ext):
    """Property: +, -, *, unary -, inv and dot of scalars, each of which
    fits the window, never raise PrecisionError.  Where the valuations
    differ the lower operand's leading digit survives; where they are
    equal the result fits the window.  The partners of x near-cancel it:
    they share the first k digits of x (all of them, with a tail past x,
    for k = len(x.coeffs)), at x's valuation or a few places off it, and
    enter negated into the sums.  Every result is the reference's (dot's
    is its fold's), digit for digit, and some sums cancel x's leading
    digits or all of its digits."""
    cancelled = zeros = 0
    for n in (4, 8):
        cfg = FieldConfig(p, n, ext)
        r = cfg.residue
        rng = random.Random(76)
        for _ in range(60):
            x = cfg.random(rng, width=rng.randrange(1, n + 1), vmin=-3,
                           vmax=3, nonzero=True)
            partners = [x, -x, cfg.random(rng, width=n, vmin=-3, vmax=3)]
            for k in range(len(x.coeffs) + 1):
                tail = [r.random(rng) for _ in range(rng.randrange(n - k + 1))]
                for shift in (0, 0, rng.randrange(-n, n + 1)):
                    partners.append(cfg.from_coeffs(x.val + shift,
                                                    list(x.coeffs[:k]) + tail))
            for y in partners:
                assert len(y.coeffs) <= n
                for a, b in ((x, y), (y, x)):
                    d = a - b
                    _same(d, ref_sub(a, b))
                    _same(a + (-b), ref_add(a, ref_neg(b)))
                    _same(a + b, ref_add(a, b))
                    _same(a * b, ref_mul(a, b))
                    _same(-a, ref_neg(a))
                    if not a.is_zero:
                        _same(a.inv(), ref_inv(a))
                    terms = [(1, a, b), (-1, b, x), (1, y, a)]
                    _same(dot(cfg, terms), fold_dot(cfg, terms))
                    zeros += d.is_zero
                    cancelled += (not (d.is_zero or a.is_zero or b.is_zero)
                                  and d.val > min(a.val, b.val))
    assert zeros and cancelled


def test_mixed_configs_raise_even_with_zero_operands():
    a, b = FieldConfig(5, 8), FieldConfig(7, 8)
    pairs = [(a.one(), b.one()), (a.zero(), b.one()), (a.one(), b.zero()),
             (a.zero(), b.zero()), (a.t(), FieldConfig(5, 8, "ramified").t())]
    for x, y in pairs:
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(ConfigMismatchError):
                op()


def test_equal_configs_need_not_be_identical():
    a, b = FieldConfig(5, 8), FieldConfig(5, 8)
    assert a is not b
    x, y = a.one() + a.t(), b.from_int(3)
    assert x + y == ref_add(x, y) and x - y == ref_sub(x, y)
    assert x * y == b.from_int(3) + b.monomial(3, 1)
    assert a.zero() is a.zero()


# -- the signed sum-of-products kernel ----------------------------------------
# scalars.dot against fold_dot, the left fold through the truncating Scalar
# operations, and each call site against the fold-based code it replaced.

import g2kit.scalars as scalars_mod  # noqa: E402
from g2kit.errors import G2KitError  # noqa: E402
from g2kit.scalars import dot, fold_dot  # noqa: E402


def _outcome(f, *args):
    """f(*args) as a comparable value, or the type of the error it raised."""
    try:
        out = f(*args)
    except (G2KitError, ZeroDivisionError) as exc:
        return type(exc)
    if isinstance(out, Scalar):
        return (out.val, out.coeffs)
    if isinstance(out, list):
        return [(c.val, c.coeffs) for c in out]
    return out


def _short_operand(rng, cfg, vmax):
    """0 or a scalar of width 1 or 2 at valuation 0..vmax."""
    width = rng.choice((0, 1, 2))
    return _operand(rng, cfg, width, False) * cfg.monomial(1, rng.randrange(vmax + 1)) \
        if width else cfg.zero()


def _terms(rng, cfg, count, by_one, inside):
    """(s, x, y) terms: short operands that keep every product inside the
    window when inside is set, widths 0, 1, 2 and N at valuations -2..2
    otherwise; y = 1 in every term when by_one is set."""
    def operand():
        if inside:
            return _short_operand(rng, cfg, cfg.precision // 4 - 1)
        return _operand(rng, cfg, rng.choice((0, 1, 2, cfg.precision)), False)

    return [(rng.choice((1, -1)), operand(), cfg.one() if by_one else operand())
            for _ in range(count)]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dot_matches_fold(p, ext, n):
    cfg = FieldConfig(p, n, ext)
    rng = random.Random(p * 100 + n + len(ext))
    for _ in range(300):
        by_one = rng.random() < 0.3
        terms = _terms(rng, cfg, rng.randrange(1, 9), by_one, rng.random() < 0.5)
        draw = rng.random()
        if draw < 0.15:
            # total cancellation: every term again with the other sign
            terms += [(-s, x, y) for s, x, y in reversed(terms)]
        elif draw < 0.3:
            # partial cancellation: the first term's leading coefficient
            s, x, y = terms[0]
            if not x.is_zero and not y.is_zero:
                lead = x * y
                terms.append((-s, cfg.monomial(lead.coeffs[0], lead.val),
                              cfg.one()))
        assert _outcome(dot, cfg, terms) == _outcome(fold_dot, cfg, terms)


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("n", [4, 8])
def test_dot_folds_exactly_when_the_span_exceeds_the_window(monkeypatch, ext, n):
    cfg = FieldConfig(7, n, ext)
    r = cfg.residue
    folds = []

    def counting_fold(c, terms):
        folds.append(len(terms))
        return fold_dot(c, terms)

    monkeypatch.setattr(scalars_mod, "fold_dot", counting_fold)
    two = r.add(r.one(), r.one())
    for span in (n - 1, n, n + 1):
        # terms 1 and -2 u^(span-1), each times 1: the span from u^0
        # through u^(span-1)
        by_one = [(1, cfg.one(), cfg.one()),
                  (-1, cfg.monomial(two, span - 1), cfg.one())]
        # (1 + u) * (1 + ... + u^(span-2)): one full product of span coefficients
        x = cfg.from_coeffs(0, [r.one(), r.one()])
        y = cfg.from_coeffs(0, [r.one()] * (span - 1))
        prod = [(-1, x, y), (1, cfg.monomial(1, 1), cfg.one())]
        for terms in (by_one, prod):
            del folds[:]
            got = dot(cfg, terms)
            assert folds == ([len(terms)] if span > n else [])
            _same(got, fold_dot(cfg, terms))
            assert len(got.coeffs) <= n


def test_dot_checks_every_operand_config():
    a, b = FieldConfig(5, 8), FieldConfig(7, 8)
    for terms in ([(1, b.one(), a.one())], [(1, a.one(), b.one())],
                  [(1, b.zero(), a.one())], [(1, a.one(), b.zero())],
                  [(1, a.one(), a.one()), (-1, a.zero(), a.one()),
                   (1, b.zero(), a.one())]):
        with pytest.raises(ConfigMismatchError):
            dot(a, terms)
    c = FieldConfig(5, 8)
    assert dot(a, [(1, c.one(), a.t()), (-1, a.t(), a.one())]).is_zero
    assert dot(a, []) is a.zero()


def test_dot_checks_every_operand_config_after_the_span_overflows(monkeypatch):
    """Once the span leaves the window dot stops collecting spans and
    folds, but it still rejects a foreign operand at any later position,
    before folding, as it does inside the window."""
    a, b = FieldConfig(5, 8), FieldConfig(7, 8)
    wide = a.from_coeffs(0, [1] * 8)
    folds = []
    monkeypatch.setattr(scalars_mod, "fold_dot",
                        lambda cfg, terms: folds.append(terms))
    one = a.one()
    tails = ([(1, b.one(), one)], [(1, a.one(), b.one())],
             [(1, b.zero(), one)], [(1, a.one(), b.zero())],
             [(-1, a.one(), one), (1, b.zero(), one)])
    # the first term overflows alone, or the second moves hi, or lo
    for head in ([(1, wide, wide)], [(1, wide, one), (1, a.t(8), one)],
                 [(1, a.t(8), one), (1, wide, one)]):
        for tail in tails:
            with pytest.raises(ConfigMismatchError):
                dot(a, head + tail)
        dot(a, head + [(1, a.one(), a.one())])
    assert len(folds) == 3


@pytest.mark.parametrize("p, ext", [(5, "none"), (7, "none"),
                                    (5, "unramified"), (7, "unramified")])
def test_one_term_dot_is_the_signed_product(p, ext):
    """dot of one term (s, x, y) equals fold_dot digit for digit: exact
    ones, zeros and full-window operands, s = +-1; an operand of another
    config raises ConfigMismatchError in either place, a zero or a one
    included."""
    cfg = FieldConfig(p, 8, ext)
    rng = random.Random(p + len(ext))
    n = cfg.precision
    operands = [cfg.one(), cfg.zero(), -cfg.one(), cfg.t(3),
                _operand(rng, cfg, 2, False), _operand(rng, cfg, n, False),
                _operand(rng, cfg, n, True)]
    other = FieldConfig(11, 8)
    for x in operands:
        for y in operands:
            for s in (1, -1):
                assert _outcome(dot, cfg, [(s, x, y)]) == \
                    _outcome(fold_dot, cfg, [(s, x, y)])
        for foreign in (other.one(), other.zero(), other.t()):
            for terms in ([(1, x, foreign)], [(-1, foreign, x)]):
                with pytest.raises(ConfigMismatchError):
                    dot(cfg, terms)


@pytest.mark.parametrize("p, ext", [(5, "none"), (7, "unramified")])
def test_a_product_wider_than_the_window_is_cut(p, ext):
    """A product of two factors inside the window whose full support is
    wider than the window, in either order, is the per-coefficient
    product cut to the window; dot and fold_dot reach the same kernel."""
    cfg = FieldConfig(p, 8, ext)
    n = cfg.precision
    rng = random.Random(140 + p)
    operands = [_operand(rng, cfg, w, far)
                for w in (2, 3, n) for far in (False, True)]
    cut = 0
    for x in operands:
        for y in operands:
            cut += len(x.coeffs) + len(y.coeffs) - 1 > n
            _same(x * y, ref_mul(x, y))
            _same(y * x, ref_mul(y, x))
            for terms in ([(1, x, y)], [(-1, y, x)], [(1, x, y), (1, y, x)]):
                assert _outcome(dot, cfg, terms) == \
                    _outcome(fold_dot, cfg, terms)
    assert cut


# -- call sites ------------------------------------------------------------------
# The fold-based code each call site had before it called dot, kept verbatim
# as the reference it must match digit for digit.

from g2kit import linalg, octonions  # noqa: E402
from g2kit.octonions import (BASIS_PRODUCT, GRAM, Q_DIAG, Octonion,  # noqa: E402
                             bilinear_f)


def ref_octonion_mul(x, y):
    out = [x.cfg.zero()] * 8
    for a, row in zip(x.coords, BASIS_PRODUCT):
        if a.is_zero:
            continue
        for b, cell in zip(y.coords, row):
            if cell is None or b.is_zero:
                continue
            i, sign = cell
            if sign > 0:
                out[i] = out[i] + a * b
            else:
                out[i] = out[i] - a * b
    return out


def ref_norm(x):
    acc = x.cfg.zero()
    for i in range(8):
        a = x.coords[i]
        if a.is_zero:
            continue
        if Q_DIAG[i]:
            acc = acc + a * a * Q_DIAG[i]
        for j in range(i + 1, 8):
            b = x.coords[j]
            if GRAM[i][j] and not b.is_zero:
                acc = acc + a * b * GRAM[i][j]
    return acc


def ref_bilinear_f(x, y):
    acc = x.cfg.zero()
    for i in range(8):
        a = x.coords[i]
        if a.is_zero:
            continue
        for j in range(8):
            g = GRAM[i][j]
            if not g:
                continue
            b = y.coords[j]
            if b.is_zero:
                continue
            acc = acc + a * b * g
    return acc


def ref_mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            if x.is_zero or y.is_zero:
                continue
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else row[0].cfg.zero())
    return out


def _always_fold(monkeypatch):
    """Send every dot call of the library through fold_dot."""
    for module in (octonions, linalg):
        monkeypatch.setattr(module, "dot", fold_dot)


def _octonion(rng, cfg, far):
    widths = [0, 0, 1, 2, cfg.precision]
    return Octonion(cfg, [_operand(rng, cfg, rng.choice(widths), far and rng.random() < 0.2)
                          for _ in range(8)])


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_octonion_sites_match_their_folds(p, ext):
    cfg = FieldConfig(p, 4, ext)
    rng = random.Random(p + len(ext))
    for _ in range(150):
        far = rng.random() < 0.3
        x, y = _octonion(rng, cfg, far), _octonion(rng, cfg, far)
        assert _outcome(lambda: list((x * y).coords)) == _outcome(ref_octonion_mul, x, y)
        assert _outcome(x.norm) == _outcome(ref_norm, x)
        assert _outcome(bilinear_f, x, y) == _outcome(ref_bilinear_f, x, y)
        rows = [list(_octonion(rng, cfg, far).coords) for _ in range(rng.randrange(1, 9))]
        assert _outcome(linalg.mat_vec, rows, list(x.coords)) \
            == _outcome(ref_mat_vec, rows, list(x.coords))


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_full_window_octonions_match_the_basis_expansion(p, ext):
    """The suites decide the octonion identities on basis vectors, whose
    coordinates are exact +-1; this keeps the multi-coefficient arithmetic
    tested.  On full-window random_octonion draws at N = 8, x y is the
    bilinear expansion over BASIS_PRODUCT, Q(x) and f(x, y) the
    expansions over the Gram matrix and conj(x) is CONJ_MAT x, digit for
    digit and error for error."""
    from g2kit.octonions import CONJ_MAT, random_octonion
    cfg = FieldConfig(p, 8, ext)
    rng = random.Random(p)
    for _ in range(60):
        x, y = (random_octonion(cfg, rng, width=cfg.precision)
                for _ in range(2))
        assert _outcome(lambda: list((x * y).coords)) == _outcome(ref_octonion_mul, x, y)
        assert _outcome(x.norm) == _outcome(ref_norm, x)
        assert _outcome(bilinear_f, x, y) == _outcome(ref_bilinear_f, x, y)
        assert list(x.conj().coords) == ref_mat_vec(
            [[cfg.from_int(c) for c in row] for row in CONJ_MAT], list(x.coords))


def test_octonion_suite_unchanged_when_every_sum_folds(monkeypatch):
    """The octonion suite and the sampled sweeps of its identities
    (sampled_sweeps), whose multi-coefficient draws the suite's basis
    decisions do not make, report the same when every sum folds."""
    from sampled_sweeps import octonion_sweeps
    from g2kit.suites import run_check, run_suite
    cfg = FieldConfig(11, 8)

    def checks():
        return run_suite("octonion", cfg, 1)["checks"] + [
            run_check(name, thunk)
            for name, thunk in octonion_sweeps(cfg, random.Random(1))]
    kernel = checks()
    _always_fold(monkeypatch)
    assert checks() == kernel
    assert all(c["status"] == "pass" for c in kernel)


# -- exact ones ---------------------------------------------------------------
# A product with an exact one returns the other operand and the inverse of
# one is one, without a kernel call; rref skips a pivot that is one and
# u_root writes its two entries into the identity.  kernel_mul, kernel_inv
# and kernel_u_root are the versions that always call the kernels (the
# per-coefficient oracles above hold the names ref_mul and ref_inv).

from g2kit import endo, triality  # noqa: E402
from g2kit.octonions import basis_octonion  # noqa: E402


def kernel_mul(self, other):
    if other.__class__ is not Scalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return other
    cfg = self.cfg
    if cfg is not other.cfg:
        self._check(other)
    if not self.coeffs or not other.coeffs:
        return cfg._zero
    return Scalar(cfg, self.val + other.val, cfg._residue.mul_series(
        self.coeffs, other.coeffs, cfg.precision))


def kernel_inv(self):
    if not self.coeffs:
        raise ZeroDivisionError("inversion of zero scalar")
    cfg = self.cfg
    return Scalar(cfg, -self.val, cfg._residue.inv_series(self.coeffs, cfg.precision))


def kernel_u_root(cfg, i, j, lam):
    if i == j or i == -j:
        raise DomainError("root indices must satisfy i != +-j")
    return endo.EndV.from_action(cfg, {
        i: basis_octonion(cfg, i) + basis_octonion(cfg, -j).scale(lam),
        j: basis_octonion(cfg, j) - basis_octonion(cfg, -i).scale(lam),
    })


def _digits(x):
    return (x.val, x.coeffs)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7])
def test_exact_one_keeps_every_digit(p, ext, n):
    cfg = FieldConfig(p, n, ext)
    one = cfg.one()
    assert one.is_one and not cfg.t().is_one and not cfg.from_int(2).is_one
    assert one * one is one and one.inv() is one
    _same(one * one, kernel_mul(one, one))
    _same(one.inv(), kernel_inv(one))
    _same(one.inv(), ref_inv(one))
    rng = random.Random(p * 100 + n + len(ext))
    for width in range(1, n + 1):
        for _ in range(20):
            x = _operand(rng, cfg, width, rng.random() < 0.25)
            for got, want in ((x * one, kernel_mul(x, one)), (one * x, kernel_mul(one, x)),
                              (x * 1, kernel_mul(x, 1)), (1 * x, kernel_mul(x, 1))):
                _same(got, want)
                _same(got, ref_mul(x, one))


def test_exact_one_product_carries_the_left_config():
    a, b = FieldConfig(5, 8), FieldConfig(5, 8)
    x = a.one() + a.t()
    for left, right in ((x, b.one()), (a.one(), b.one() + b.t()), (a.one(), b.one())):
        got = left * right
        assert got.cfg is left.cfg
        _same(got, kernel_mul(left, right))


def test_exact_one_against_a_foreign_config_still_raises():
    a, b = FieldConfig(5, 8), FieldConfig(7, 8)
    x = a.one() + a.t()
    for left, right in ((x, b.one()), (b.one(), x), (a.one(), b.one()),
                        (a.zero(), b.one()), (b.one(), a.zero()),
                        (a.one(), FieldConfig(5, 8, "ramified").one())):
        with pytest.raises(ConfigMismatchError):
            left * right


@pytest.mark.parametrize("ext", ["none", "unramified", "ramified"])
@pytest.mark.parametrize("p", [5, 7])
def test_u_root_entries_match_the_octonion_build(p, ext):
    cfg = FieldConfig(p, 8, ext)
    rng = random.Random(p + len(ext))
    labels = (-4, -3, -2, -1, 1, 2, 3, 4)
    lams = [cfg.zero(), cfg.one(), 3, cfg.t(-1)] + [cfg.random(rng) for _ in range(4)]
    for i in labels:
        for j in labels:
            if i in (j, -j):
                with pytest.raises(DomainError):
                    endo.u_root(cfg, i, j, cfg.one())
                continue
            for lam in lams:
                got, want = endo.u_root(cfg, i, j, lam), kernel_u_root(cfg, i, j, lam)
                assert [[_digits(x) for x in row] for row in got.rows] \
                    == [[_digits(x) for x in row] for row in want.rows]
    with pytest.raises(ConfigMismatchError):
        endo.u_root(cfg, 1, 2, FieldConfig(11, 8).t())


def test_rref_records_an_exact_one_pivot_as_its_own_inverse():
    from g2kit.linalg import rref
    cfg = FieldConfig(5, 8)
    one, t = cfg.one(), cfg.t()
    ops = []
    rows, pivots = rref([[one, t], [t, one + t]], ops)
    assert pivots == [0, 1] and ops[0][1] is rows[0][0]
    assert [[_digits(x) for x in row] for row in rows] \
        == [[_digits(x) for x in row] for row in ([one, cfg.zero()], [cfg.zero(), one])]


def _kernel_path(monkeypatch):
    """Send every product and inverse through the kernels, invert every
    pivot and build every root element from octonions."""
    monkeypatch.setattr(Scalar, "__mul__", kernel_mul)
    monkeypatch.setattr(Scalar, "inv", kernel_inv)
    monkeypatch.setattr(Scalar, "is_one", property(lambda self: False))
    monkeypatch.setattr(endo, "u_root", kernel_u_root)
    monkeypatch.setattr(triality, "u_root", kernel_u_root)


def test_quotient_verdicts_unchanged_on_the_kernel_path(monkeypatch):
    """quotient_iso_check on both benchmark sequences at the four levels
    gives the same reports with and without the exact-one shortcuts."""
    from fractions import Fraction as Fr
    from g2kit import fixtures
    from g2kit.filtration import quotient_iso_check
    from g2kit.norms import extend_sl3, lattice_seq_from_norm, standard_norm
    from g2kit.octonions import hyperbolic_plane
    cfg = FieldConfig(5, 8)
    std = lattice_seq_from_norm(standard_norm(cfg))
    thirds = lattice_seq_from_norm(extend_sl3(fixtures.wplus_norm(
        cfg, [Fr(1, 3), Fr(1, 3), Fr(-2, 3)]), hyperbolic_plane(cfg)))
    levels = [(seq, r, s) for seq in (std, thirds)
              for r, s in ((1, 1), (1, 2), (2, 3), (2, 4))]
    reports = [quotient_iso_check(*level) for level in levels]
    assert all(rep["violations"] == [] for rep in reports)
    _kernel_path(monkeypatch)
    assert [quotient_iso_check(*level) for level in levels] == reports
