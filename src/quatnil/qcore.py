"""Exact arithmetic in generalized quaternion algebras (a,b/Q) over the rationals.

The algebra is presented on the basis (1, i, j, k) with

    i*i = a,   j*j = b,   i*j = k = -j*i,   k*k = -a*b,

where a, b are nonzero rationals making (a,b/Q) a division algebra (enforced
at construction via Hilbert symbols).  All arithmetic is exact; every value
is immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterator, Optional, Union

from . import ratlin
from .errors import (
    AlgebraMismatchError,
    CertificateError,
    NotDivisionAlgebraError,
    ObstructionError,
    ParameterError,
    PreconditionError,
)

RationalLike = Union[int, str, Fraction]

#: Largest decimal exponent magnitude in a rational literal; Fraction("1e<x>")
#: computes 10**x, which would get around Python's 4300-digit integer limit.
MAX_EXPONENT = 4300

#: Largest bit length of |numerator|*denominator of an algebra parameter, so
#: that its second largest prime factor has at most 32 bits and factoring is fast.
MAX_PARAMETER_BITS = 64


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a rational literal string ('p/q', '1.5e3'), or a Fraction to a Fraction.

    A string that Fraction rejects, or whose exponent exceeds MAX_EXPONENT
    in magnitude, raises ParameterError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParameterError(f"cannot interpret {value!r} as a rational number")
    exponent = value.replace("E", "e").partition("e")[2].replace("_", "")
    try:
        if exponent and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT}")
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad rational literal {value!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Integer / local-field helpers (Hilbert symbols over Q)
# ---------------------------------------------------------------------------


#: The primes below 1000: the trial divisors of `_trial_divide`.
_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1))]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:  # a witness that divides n would read n as composite
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """(factors, rest) with n = rest * prod(p**e), by trial division by the primes below 1000.

    rest is 1 or above 10**6 and free of primes below 1000, so it is prime
    or a product of larger primes; `_is_prime` is exact on it.
    """
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if 1 < n < 10**6:  # no prime factor up to its square root
        factors[n], n = 1, 1
    return factors, n


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n, which has no prime factor below 1000.

    Pollard's rho method (Pollard 1975) in Brent's form, with products of
    128 differences per gcd; the polynomials x^2 + c are tried for
    c = 1, 2, ... until one gives a proper divisor.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0, primes ascending.

    Trial division by the primes below 1000, then Miller-Rabin on what is
    left, and Pollard's rho to split a composite rest.  Primality is proved
    below 3.3e24 and probable above.
    """
    factors, rest = _trial_divide(n)
    pending = [rest] if rest > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            pending += [d, m // d]
    return dict(sorted(factors.items()))


def _squarefree_model(r: Fraction) -> tuple[int, Fraction, list[int]]:
    """(s, t, primes) with r = s * t**2, s a squarefree integer and `primes` the primes of s."""
    if r == 0:
        raise ParameterError("zero has no squarefree part")
    factors = _factorize(abs(r.numerator * r.denominator))
    primes = [p for p, e in factors.items() if e % 2]
    t = prod(p ** (e // 2) for p, e in factors.items())
    return (-1 if r < 0 else 1) * prod(primes), Fraction(t, r.denominator), primes


def is_rational_square(r: Fraction) -> bool:
    if r < 0:
        return False
    return isqrt(r.numerator) ** 2 == r.numerator and isqrt(r.denominator) ** 2 == r.denominator


def rational_sqrt(r: Fraction) -> Optional[Fraction]:
    """Exact square root of r if it exists in Q, else None."""
    if r < 0:
        return None
    pn, pd = isqrt(r.numerator), isqrt(r.denominator)
    if pn * pn == r.numerator and pd * pd == r.denominator:
        return Fraction(pn, pd)
    return None


def _legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, a not divisible by p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    """n = p**v * u with p not dividing u; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a: int, b: int, place) -> int:
    """Hilbert symbol (a,b)_v over Q at `place` (an odd prime, 2, or 'inf').

    a and b are nonzero integers; the symbol only depends on their square
    classes.  Classical local formulas: at the real place the symbol is -1
    exactly when both arguments are negative; at p=2 and odd p the unit/
    valuation decomposition formulas apply.
    """
    if a == 0 or b == 0:
        raise ParameterError("hilbert symbol requires nonzero arguments")
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    alpha, u = _split_valuation(a, p)
    beta, w = _split_valuation(b, p)
    if p == 2:
        eps_u, eps_w = ((u - 1) // 2) % 2, ((w - 1) // 2) % 2
        om_u, om_w = ((u * u - 1) // 8) % 2, ((w * w - 1) // 8) % 2
        exponent = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if exponent % 2 else 1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(w, p)
    return sign


def _local_model(a: Fraction, b: Fraction) -> tuple:
    """(a_sf, a_scale, b_sf, b_scale, primes, ramified) for the algebra (a,b/Q).

    a = a_sf * a_scale**2 and b = b_sf * b_scale**2 with a_sf, b_sf
    squarefree integers; `primes` are the primes of a_sf*b_sf, ascending.
    Only the real place, 2 and the odd primes of a_sf*b_sf can carry a
    Hilbert symbol (a,b)_v = -1; `ramified` lists the places that do.
    A parameter whose |numerator|*denominator exceeds MAX_PARAMETER_BITS
    raises ParameterError before it is factored.
    """
    for r in (a, b):
        if (abs(r.numerator) * r.denominator).bit_length() > MAX_PARAMETER_BITS:
            raise ParameterError(f"algebra parameter {r}: |numerator|*denominator exceeds 64 bits")
    a_sf, a_scale, a_primes = _squarefree_model(a)
    b_sf, b_scale, b_primes = _squarefree_model(b)
    primes = tuple(sorted({*a_primes, *b_primes}))
    places = ("inf", 2, *(p for p in primes if p != 2))
    ramified = tuple(v for v in places if hilbert_symbol(a_sf, b_sf, v) == -1)
    return a_sf, a_scale, b_sf, b_scale, primes, ramified


def is_division(a: RationalLike, b: RationalLike) -> bool:
    """Whether (a,b/Q) is a division algebra.

    Decided locally: the algebra is split iff every Hilbert symbol (a,b)_v
    equals 1, and only the real place, 2, and the odd primes dividing the
    squarefree parts of a and b can carry a -1.
    """
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise ParameterError("algebra parameters must be nonzero")
    return bool(_local_model(a, b)[-1])


def is_square_in_Qv(e: Fraction, place) -> bool:
    """Whether the nonzero rational e is a square in the completion Q_v."""
    if e == 0:
        raise ParameterError("expected a nonzero rational")
    if place == "inf":
        return e > 0
    p = int(place)
    v_num, u_num = _split_valuation(e.numerator, p)
    v_den, u_den = _split_valuation(e.denominator, p)
    if (v_num - v_den) % 2:
        return False
    if p == 2:
        unit = (u_num * pow(u_den, -1, 8)) % 8
        return unit == 1
    unit = (u_num * pow(u_den, -1, p)) % p
    return _legendre(unit, p) == 1


# ---------------------------------------------------------------------------
# The algebra and its elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraParams:
    """Structure constants (a, b) of a rational quaternion division algebra."""

    a: Fraction
    b: Fraction
    # the local model of `_local_model`, computed once; a and b determine it
    a_sf: int = field(init=False, compare=False, repr=False)
    a_scale: Fraction = field(init=False, compare=False, repr=False)
    b_sf: int = field(init=False, compare=False, repr=False)
    b_scale: Fraction = field(init=False, compare=False, repr=False)
    primes: tuple = field(init=False, compare=False, repr=False)
    ramified: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if self.a == 0 or self.b == 0:
            raise ParameterError("algebra parameters must be nonzero")
        model = _local_model(self.a, self.b)
        if not model[-1]:
            raise NotDivisionAlgebraError(
                f"({self.a},{self.b}/Q) is split; only division algebras are supported"
            )
        for name, value in zip(("a_sf", "a_scale", "b_sf", "b_scale", "primes", "ramified"), model):
            object.__setattr__(self, name, value)

    def quat(self, w=0, x=0, y=0, z=0) -> "Quaternion":
        return Quaternion(rat(w), rat(x), rat(y), rat(z), self)

    def scalar(self, w) -> "Quaternion":
        return self.quat(w)

    def zero(self) -> "Quaternion":
        return self.quat()

    def one(self) -> "Quaternion":
        return self.quat(1)

    def i(self) -> "Quaternion":
        return self.quat(0, 1)

    def j(self) -> "Quaternion":
        return self.quat(0, 0, 1)

    def k(self) -> "Quaternion":
        return self.quat(0, 0, 0, 1)

    def basis(self) -> tuple["Quaternion", "Quaternion", "Quaternion", "Quaternion"]:
        return self.one(), self.i(), self.j(), self.k()

    def __str__(self):
        return f"({self.a},{self.b}/Q)"


def hamilton_algebra() -> AlgebraParams:
    """The default algebra (-1,-1/Q)."""
    return AlgebraParams(Fraction(-1), Fraction(-1))


@dataclass(frozen=True)
class Quaternion:
    """Element w + x*i + y*j + z*k of a fixed algebra, with exact coordinates."""

    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction
    algebra: AlgebraParams

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.w, self.x, self.y, self.z

    def _check_same_algebra(self, other: "Quaternion"):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("operands live in different algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._check_same_algebra(other)
        return Quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z, self.algebra
        )

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z, self.algebra)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return Quaternion(self.w * c, self.x * c, self.y * c, self.z * c, self.algebra)
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._check_same_algebra(other)
        a, b = self.algebra.a, self.algebra.b
        w1, x1, y1, z1 = self.coords()
        w2, x2, y2, z2 = other.coords()
        return Quaternion(
            w1 * w2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            w1 * x2 + x1 * w2 - b * y1 * z2 + b * z1 * y2,
            w1 * y2 + y1 * w2 + a * x1 * z2 - a * z1 * x2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
            self.algebra,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __rtruediv__(self, other):
        """c / q = c * q^-1 for a rational c, so 1 / q is the inverse."""
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z, self.algebra)

    def norm(self) -> Fraction:
        """Reduced norm N(q) = q * conj(q), a rational."""
        a, b = self.algebra.a, self.algebra.b
        w, x, y, z = self.coords()
        return w * w - a * x * x - b * y * y + a * b * z * z

    def reduced_trace(self) -> Fraction:
        """Reduced trace t(q) = q + conj(q), a rational."""
        return 2 * self.w

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conjugate() * (Fraction(1) / n)

    def pure_part(self) -> "Quaternion":
        return Quaternion(Fraction(0), self.x, self.y, self.z, self.algebra)

    def is_zero(self) -> bool:
        return self.w == 0 and self.x == 0 and self.y == 0 and self.z == 0

    def is_central(self) -> bool:
        """Central elements are exactly the rational scalars."""
        return self.x == 0 and self.y == 0 and self.z == 0

    def is_pure(self) -> bool:
        return self.w == 0

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        parts = []
        for coeff, unit in zip(self.coords(), ("", "i", "j", "k")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = unit if (mag == 1 and unit) else f"{mag}{unit}"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<{self} in {self.algebra}>"


def quadratic_identity_check(q: Quaternion) -> bool:
    """Whether q*q == t(q)*q - N(q); holds for every quaternion."""
    rhs = q * q.reduced_trace() - q.algebra.scalar(q.norm())
    return q * q == rhs


def polar_form(p: Quaternion, q: Quaternion) -> Fraction:
    """Polar form of the norm: t(p * conj(q)); symmetric and Q-bilinear."""
    p._check_same_algebra(q)
    return (p * q.conjugate()).reduced_trace()


# ---------------------------------------------------------------------------
# Left/right multiplication as rational 4x4 matrices
# ---------------------------------------------------------------------------


def left_mul_matrix(p: Quaternion) -> list[list[Fraction]]:
    """Matrix of v -> p*v on coordinates (w, x, y, z)."""
    a, b = p.algebra.a, p.algebra.b
    w, x, y, z = p.coords()
    return [
        [w, a * x, b * y, -a * b * z],
        [x, w, b * z, -b * y],
        [y, -a * z, w, a * x],
        [z, -y, x, w],
    ]


def right_mul_matrix(q: Quaternion) -> list[list[Fraction]]:
    """Matrix of v -> v*q on coordinates (w, x, y, z)."""
    a, b = q.algebra.a, q.algebra.b
    w, x, y, z = q.coords()
    return [
        [w, a * x, b * y, -a * b * z],
        [x, w, -b * z, b * y],
        [y, a * z, w, -a * x],
        [z, y, -x, w],
    ]


def _from_coords(vec: list[Fraction], algebra: AlgebraParams) -> Quaternion:
    return Quaternion(vec[0], vec[1], vec[2], vec[3], algebra)


# ---------------------------------------------------------------------------
# Conjugacy classes and witnesses
# ---------------------------------------------------------------------------


class ConjClass:
    """Conjugacy class of a quaternion.

    A noncentral class is determined by the pair (trace, norm); a central
    class is the singleton of its representative.
    """

    __slots__ = ("trace", "norm", "central", "representative")

    def __init__(self, representative: Quaternion):
        self.representative = representative
        self.trace = representative.reduced_trace()
        self.norm = representative.norm()
        self.central = representative.is_central()

    @classmethod
    def of(cls, q: Quaternion) -> "ConjClass":
        return cls(q)

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def __eq__(self, other):
        if not isinstance(other, ConjClass):
            return NotImplemented
        if self.central != other.central:
            return False
        if self.central:
            return self.representative == other.representative
        return self.trace == other.trace and self.norm == other.norm

    def __hash__(self):
        if self.central:
            return hash(("central", self.representative))
        return hash(("class", self.trace, self.norm))

    def __str__(self):
        return f"[t={self.trace}, N={self.norm}] rep={self.representative}"

    __repr__ = __str__


def are_conjugate(p: Quaternion, q: Quaternion) -> bool:
    """Conjugacy test: noncentral elements are conjugate iff traces and norms agree."""
    p._check_same_algebra(q)
    if p.is_central() or q.is_central():
        return p == q
    return p.reduced_trace() == q.reduced_trace() and p.norm() == q.norm()


def conjugator(p: Quaternion, q: Quaternion) -> Quaternion:
    """A nonzero g with g*q*g^-1 == p, for conjugate p and q.

    Deterministic: g is the first vector of the canonical kernel basis of
    the rational linear system g*q - p*g = 0.
    """
    if not are_conjugate(p, q):
        raise ObstructionError(f"{p} and {q} are not conjugate")
    rq = right_mul_matrix(q)
    lp = left_mul_matrix(p)
    system = [[rq[r][c] - lp[r][c] for c in range(4)] for r in range(4)]
    basis = ratlin.kernel(system)
    g = _from_coords(basis[0], p.algebra)
    if g.is_zero() or g * q != p * g:
        raise CertificateError(f"conjugator: g = {g} does not conjugate {q} to {p}")
    return g


def sylvester_solve(p: Quaternion, q: Quaternion, d: Quaternion) -> Optional[Quaternion]:
    """Particular solution c of p*c - c*q = d, or None when unsolvable.

    Deterministic: canonical solve of the 4-dimensional rational system with
    free coordinates pinned to zero.
    """
    p._check_same_algebra(q)
    p._check_same_algebra(d)
    lp = left_mul_matrix(p)
    rq = right_mul_matrix(q)
    system = [[lp[r][c] - rq[r][c] for c in range(4)] for r in range(4)]
    sol = ratlin.solve(system, list(d.coords()))
    if sol is None:
        return None
    c = _from_coords(sol, p.algebra)
    if p * c - c * q != d:
        raise CertificateError(f"sylvester_solve: c = {c} does not solve p*c - c*q = d")
    return c


def translate_conjugate(p: Quaternion, q: Quaternion) -> Quaternion:
    """A translation r such that p+r and q+r are conjugate (needs t(p) = t(q)).

    For p != q the translations making the norms match form an affine
    hyperplane, and the result is its canonical point (`ratlin.solve`).
    Neither p+r nor q+r is central there: p+r = t would give
    N(q+r) = N(t + q - p) = t^2 + N(q - p), and N(q - p) != 0 for the pure
    q - p != 0 in a division algebra.  So p+r and q+r, with equal traces
    and norms, are conjugate.
    """
    p._check_same_algebra(q)
    if p.reduced_trace() != q.reduced_trace():
        raise PreconditionError("translate_conjugate requires equal reduced traces")
    if p == q:
        return p.algebra.zero()
    row = [polar_form(q - p, e) for e in p.algebra.basis()]
    base = ratlin.solve([row], [p.norm() - q.norm()])
    if base is None:  # polar form is nondegenerate and q - p != 0
        raise CertificateError("translate_conjugate: the norm hyperplane is empty")
    r = _from_coords(base, p.algebra)
    if not are_conjugate(p + r, q + r):
        raise CertificateError(f"translate_conjugate: {p} + r and {q} + r are not conjugate")
    return r


# ---------------------------------------------------------------------------
# Square roots of rationals among pure quaternions
# ---------------------------------------------------------------------------


def sqrt_pure(e: RationalLike, algebra: AlgebraParams) -> Optional[Quaternion]:
    """A pure quaternion s with s*s == e, or None when no such s exists.

    Existence first: a pure square root of a nonzero e exists iff the
    quadratic extension Q(sqrt(e)) embeds into the algebra, i.e. iff e is a
    nonsquare in every completion Q_v at which the algebra ramifies.  Then
    the root is built, over every algebra, by a conic descent
    (`_pure_coords`, after Cremona-Rusin 2003 and Simon 2005), which has no
    height bound and always ends.  A root that fails its check raises
    CertificateError.
    """
    e = rat(e)
    if e == 0:
        return algebra.zero()
    if any(is_square_in_Qv(e, place) for place in algebra.ramified):
        return None
    # e = num*den / den^2 on the squarefree model
    x, y, z = _pure_coords(e.numerator * e.denominator, algebra.a_sf, algebra.b_sf, algebra.primes)
    scale = Fraction(1, e.denominator)
    s = Quaternion(
        Fraction(0),
        x * scale / algebra.a_scale,
        y * scale / algebra.b_scale,
        z * scale / (algebra.a_scale * algebra.b_scale),
        algebra,
    )
    return _checked_root(s, e)


def _checked_root(s: Quaternion, e: Fraction) -> Quaternion:
    """s itself, after checking that it is a pure square root of e."""
    if not s.is_pure() or s * s != s.algebra.scalar(e):
        raise CertificateError(f"sqrt_pure: {s} is not a pure square root of {e}")
    return s


# ---------------------------------------------------------------------------
# Pure roots by conic descent (Cremona-Rusin 2003, Simon 2005)
# ---------------------------------------------------------------------------


def _strip_squares(n: int, primes) -> tuple[int, int]:
    """(n / t^2, t), t the product of the squares in n of the primes below 1000 and `primes`."""
    small, rest = _trial_divide(abs(n))
    t = prod(p ** (e // 2) for p, e in small.items())
    for p in primes:
        while rest % (p * p) == 0:
            rest //= p * p
            t *= p
    return n // (t * t), t


def _pure_coords(big_e: int, a: int, b: int, primes: tuple) -> tuple[Fraction, Fraction, Fraction]:
    """Rationals (x, y, z) with a*x^2 + b*y^2 - a*b*z^2 = E, for a solvable equation.

    a and b are squarefree and `primes` are the primes of ab.  E loses its
    squares of the primes below 1000 and of the primes of ab first; with
    one of those left, the pairs below could all fail at that prime.
    Fixing y = u/v leaves the conic X^2 - b*Z^2 = C*W^2 with
    C = a*(E*v^2 - b*u^2), and then x = X/(a*W*v), z = Z/(a*W*v).  The pairs of `_descent_pairs` are
    tried, with a and b also exchanged, until C is small primes times at
    most one prime and the conic is solvable at every place; `_conic` then
    solves it.  The scan ends because a primitive binary quadratic form
    represents infinitely many primes (Weber).
    """
    b_primes = {b1: [p for p in primes if b1 % p == 0] for b1 in (a, b)}
    big_e, t = _strip_squares(big_e, primes)
    roles = ((a, b, False), (b, a, True))
    for u, v, (a1, b1, swapped) in _descent_pairs(big_e, roles):
        c = a1 * (big_e * v * v - b1 * u * u)
        if c == 0:  # E = b1*y^2 already
            x1 = z1 = Fraction(0)
        elif _easy_conic(b1, c, b_primes[b1]):
            big_x, big_z, w = _conic(b1, c, b_primes[b1])
            x1, z1 = Fraction(big_x, a1 * w * v), Fraction(big_z, a1 * w * v)
        else:
            continue
        y1 = Fraction(u, v)
        return (t * y1, t * x1, t * z1) if swapped else (t * x1, t * y1, t * z1)
    raise AssertionError("unreachable: the pair scan is infinite")


def _descent_pairs(big_e: int, roles) -> Iterator[tuple[int, int, tuple]]:
    """(u, v, role) in a fixed order: round r takes the next pair of columns 1..r of each role."""
    columns: dict = {}
    for r in itertools.count(1):
        for w in range(1, r + 1):
            for role in roles:
                if (w, role) not in columns:
                    columns[w, role] = _column(big_e, role[0], role[1], w)
                pair = next(columns[w, role], None)
                if pair is not None:
                    yield *pair, role


def _column(big_e: int, a: int, b: int, w: int) -> Iterator[tuple[int, int]]:
    """Coprime (u, v), v > 0, for the outer index w, nearest the sign change of C first.

    C = a*(E*v^2 - b*u^2), and with b < 0 the real place needs C > 0,
    which fixes the sign of D = E*v^2 - b*u^2.  The outer index is v and u
    runs when |E| >= |b|; otherwise u is outer and v runs, by the same walk
    on D = (-b)*u^2 - (-E)*v^2.  So a step of the running coordinate moves
    D by the smaller coefficient.
    """
    sign = (1 if a > 0 else -1) if b < 0 else 0
    if abs(big_e) >= abs(b):
        return ((u, w) for u in _walk(big_e, b, w, sign))
    return ((w, v) for v in _walk(-b, -big_e, w, sign) if v)


def _walk(big_e: int, b: int, w: int, sign: int) -> Iterator[int]:
    """t >= 0 coprime to w with E*w^2 - b*t^2 of the given sign (0: any), from its sign change out.

    E*w^2 - b*t^2 has the sign of b up to t0 = floor(w*sqrt(E/b)) and that
    of -b beyond; the allowed sides are walked alternately.
    """
    t0 = isqrt(big_e * w * w // b) if big_e * b > 0 else -1
    beyond = itertools.count(t0 + 1) if sign * b <= 0 else ()
    below = range(t0, -1, -1) if sign * b >= 0 else ()
    for pair in itertools.zip_longest(beyond, below):
        for t in pair:
            if t is not None and gcd(t, w) == 1:
                yield t


def _easy_conic(b: int, c: int, b_primes: list) -> bool:
    """Whether X^2 - b*Z^2 = c*W^2 is solvable and c is small primes times at most one prime."""
    if any(hilbert_symbol(b, c, p) == -1 for p in ("inf", 2, *b_primes)):
        return False
    small, rest = _trial_divide(abs(c))
    if rest > 1 and not _is_prime(rest):
        return False
    return all(hilbert_symbol(b, c, p) == 1 for p in [*small, rest] if p > 2)


def _conic(b: int, c: int, b_primes: list) -> tuple[int, int, int]:
    """Integers (X, Z, W) with W != 0 and X^2 - b*Z^2 = c*W^2.

    b is squarefree with the primes `b_primes`, and (b, c)_v = 1 at every
    place, so a solution exists.  The square part f^2 of c comes out first
    and multiplies X and Z by f.
    """
    factors = _factorize(abs(c))
    f = prod(p ** (e // 2) for p, e in factors.items())
    c_primes = [p for p, e in factors.items() if e % 2]
    big_x, big_z, w = _squarefree_conic(b, b_primes, c // (f * f), c_primes)
    return big_x * f, big_z * f, w


def _squarefree_conic(b: int, b_primes: list, c: int, c_primes: list) -> tuple[int, int, int]:
    """`_conic` for a squarefree c with the primes `c_primes`.

    Lagrange's descent with lattices: for m = |c| and r^2 = b mod m, the
    lattice X = r*Z mod m holds a shortest vector for X^2 + |b|*Z^2 with
    X^2 - b*Z^2 = m*k and |k| <= 2*sqrt(|b|/3), which leaves the equation
    for sign(c)*k.  When |c| < |b| the two exchange roles, so the larger
    coefficient shrinks every other step; neither is factored again.
    """
    if c == 1:
        return 1, 0, 1
    if b == 1:
        return c + 1, c - 1, 2
    if abs(c) < abs(b):
        big_x, w, big_z = _squarefree_conic(c, c_primes, b, b_primes)
        return big_x, big_z, w
    m = abs(c)
    x1, z1 = _short_vector(m, _sqrt_mod(b, c_primes), abs(b))
    k = (x1 * x1 - b * z1 * z1) // m
    x2, z2, w2 = _conic(b, c // m * k, b_primes)
    # norms multiply: (m*k) * (sign(c)*k*w2^2) = c * (k*w2)^2
    big_x, big_z, w = x1 * x2 + b * z1 * z2, x1 * z2 + z1 * x2, k * w2
    g = gcd(big_x, big_z, w)
    return big_x // g, big_z // g, w // g


def _sqrt_mod(n: int, primes: list) -> int:
    """r with r^2 = n modulo the product of the distinct primes, n a square modulo each."""
    r, m = 0, 1
    for p in primes:
        r += m * ((_sqrt_mod_prime(n % p, p) - r) * pow(m, -1, p) % p)
        m *= p
    return r


def _sqrt_mod_prime(n: int, p: int) -> int:
    """r with r^2 = n mod p for a square 0 <= n < p (Tonelli-Shanks)."""
    if n == 0 or p == 2:
        return n
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in itertools.count(2) if _legendre(z, p) == -1)
    c, t, r = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        d = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, d * d % p, t * d * d % p, r * d % p
    return r


def _short_vector(m: int, r: int, nb: int) -> tuple[int, int]:
    """A shortest nonzero (X, Z) with X = r*Z mod m for the form X^2 + nb*Z^2 (Lagrange-Gauss)."""

    def form(v):
        return v[0] * v[0] + nb * v[1] * v[1]

    u, w = (m, 0), (r, 1)
    if form(u) > form(w):
        u, w = w, u
    while True:
        fu = form(u)
        mu = (2 * (u[0] * w[0] + nb * u[1] * w[1]) + fu) // (2 * fu)
        w = (w[0] - mu * u[0], w[1] - mu * u[1])
        if form(w) >= fu:
            return u
        u, w = w, u
