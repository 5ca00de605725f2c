"""Exact arithmetic in generalized quaternion algebras (a,b/Q) over the rationals.

The algebra is presented on the basis (1, i, j, k) with

    i*i = a,   j*j = b,   i*j = k = -j*i,   k*k = -a*b,

where a, b are nonzero rationals making (a,b/Q) a division algebra (enforced
at construction via Hilbert symbols).  All arithmetic is exact; every value
is immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional, Union

from . import ratlin
from .errors import (
    AlgebraMismatchError,
    CertificateError,
    NotDivisionAlgebraError,
    ObstructionError,
    ParameterError,
    PreconditionError,
    SearchBudgetExceeded,
)

RationalLike = Union[int, str, Fraction]

#: Cap on the shell height of the integral search in sqrt_pure, read at each call.
SQRT_MAX_HEIGHT = 64


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise ParameterError(f"cannot interpret {value!r} as a rational number")


# ---------------------------------------------------------------------------
# Integer / local-field helpers (Hilbert symbols over Q)
# ---------------------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n > 0 by trial division (desk-scale inputs)."""
    factors: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _squarefree_int(n: int) -> tuple[int, int]:
    """Write n = s * t**2 with s squarefree (sign kept on s). Returns (s, t)."""
    if n == 0:
        raise ParameterError("zero has no squarefree part")
    sign = -1 if n < 0 else 1
    s, t = sign, 1
    for p, e in _factorize(abs(n)).items():
        if e % 2:
            s *= p
        t *= p ** (e // 2)
    return s, t


def squarefree_part(r: Fraction) -> tuple[int, Fraction]:
    """Write the nonzero rational r as s * t**2 with s a squarefree integer."""
    if r == 0:
        raise ParameterError("zero has no squarefree part")
    s, m = _squarefree_int(r.numerator * r.denominator)
    return s, Fraction(m, r.denominator)


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


def _relevant_places(a_sf: int, b_sf: int) -> list:
    places: list = ["inf", 2]
    odd = sorted(
        {p for p in _factorize(abs(a_sf)) if p != 2} | {p for p in _factorize(abs(b_sf)) if p != 2}
    )
    places.extend(odd)
    return places


def ramified_places(a: Fraction, b: Fraction) -> list:
    """Places of Q where (a,b/Q) is locally a division algebra."""
    a_sf, _ = squarefree_part(rat(a))
    b_sf, _ = squarefree_part(rat(b))
    return [v for v in _relevant_places(a_sf, b_sf) if hilbert_symbol(a_sf, b_sf, v) == -1]


def is_division(a: RationalLike, b: RationalLike) -> bool:
    """Whether (a,b/Q) is a division algebra.

    Decided locally: the algebra is split iff every Hilbert symbol (a,b)_v
    equals 1, and only the real place, 2, and the odd primes dividing the
    squarefree parts of a and b can carry a -1.
    """
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise ParameterError("algebra parameters must be nonzero")
    return bool(ramified_places(a, b))


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

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if self.a == 0 or self.b == 0:
            raise ParameterError("algebra parameters must be nonzero")
        if not is_division(self.a, self.b):
            raise NotDivisionAlgebraError(
                f"({self.a},{self.b}/Q) is split; only division algebras are supported"
            )

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


# ---------------------------------------------------------------------------
# Height-ordered enumeration of rationals and tuples
# ---------------------------------------------------------------------------


def height(r: Fraction) -> int:
    return max(abs(r.numerator), r.denominator) if r != 0 else 0


def rationals_of_height(h: int) -> list[Fraction]:
    """Rationals of exact height h; positives before negatives, small denominators first."""
    if h == 0:
        return [Fraction(0)]
    out = []
    for den in range(1, h + 1):
        nums = [h] if den < h else list(range(1, h + 1))
        for num in nums:
            if Fraction(num, den).denominator != den or max(num, den) != h:
                continue
            out.append(Fraction(num, den))
            out.append(Fraction(-num, den))
    return out


def iter_rationals() -> Iterator[Fraction]:
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, ... ordered by height."""
    h = 0
    while True:
        yield from rationals_of_height(h)
        h += 1


def iter_rational_tuples(k: int, max_height: Optional[int] = None) -> Iterator[tuple[Fraction, ...]]:
    """k-tuples of rationals ordered by height, lexicographic within a height shell.

    The component order inside a shell is the scalar enumeration order.
    """
    h = 0
    pool: list[Fraction] = []
    while max_height is None or h <= max_height:
        pool = pool + rationals_of_height(h)
        for tup in itertools.product(pool, repeat=k):
            if max(height(c) for c in tup) == h:
                yield tup
        h += 1


def translate_conjugate(p: Quaternion, q: Quaternion) -> Quaternion:
    """A translation r such that p+r and q+r are conjugate (needs t(p) = t(q)).

    For p != q the translations making the norms match form an affine
    hyperplane; the result is the least point of its canonical enumeration
    such that both p+r and q+r are noncentral.
    """
    p._check_same_algebra(q)
    if p.reduced_trace() != q.reduced_trace():
        raise PreconditionError("translate_conjugate requires equal reduced traces")
    if p == q:
        return p.algebra.zero()
    u = q - p
    ones = p.algebra.basis()
    row = [polar_form(u, e) for e in ones]
    rhs = p.norm() - q.norm()
    base = ratlin.solve([row], [rhs])
    if base is None:  # polar form is nondegenerate and u != 0
        raise CertificateError("translate_conjugate: the norm hyperplane is empty")
    directions = ratlin.kernel([row])
    for coeffs in iter_rational_tuples(len(directions)):
        vec = list(base)
        for c, d in zip(coeffs, directions):
            vec = [v + c * dv for v, dv in zip(vec, d)]
        r = _from_coords(vec, p.algebra)
        if (p + r).is_central() or (q + r).is_central():
            continue
        if not are_conjugate(p + r, q + r):
            raise CertificateError(f"translate_conjugate: {p} + r and {q} + r are not conjugate")
        return r
    raise AssertionError("unreachable: two lines cannot cover a hyperplane")


def pure_as_commutator(p: Quaternion) -> tuple[Quaternion, Quaternion]:
    """A pair (u, v) with u*v - v*u == p, for pure p.

    Translate p so that p+r is conjugate to r, take g with g*r*g^-1 = p+r;
    then p = [g*r, g^-1].  The output is verified before returning.
    """
    if p.reduced_trace() != 0:
        raise PreconditionError("pure_as_commutator requires a pure quaternion")
    zero = p.algebra.zero()
    if p.is_zero():
        return zero, zero
    r = translate_conjugate(p, zero)
    g = conjugator(p + r, r)
    u, v = g * r, g.inverse()
    if u * v - v * u != p:
        raise CertificateError(f"pure_as_commutator: [u, v] != {p}")
    return u, v


# ---------------------------------------------------------------------------
# Square roots of rationals among pure quaternions
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
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


def _two_squares_prime(p: int) -> tuple[int, int]:
    """x, y with x^2 + y^2 = p for p = 2 or a prime p = 1 mod 4 (Cornacchia)."""
    if p == 2:
        return 1, 1
    if p % 4 != 1:
        raise PreconditionError(f"two squares: {p} is not 2 or 1 mod 4")
    r = None
    c = 2
    while r is None:
        cand = pow(c, (p - 1) // 4, p)
        if cand * cand % p == p - 1:
            r = cand
        c += 1
    a, b = p, r
    bound = isqrt(p)
    while b > bound:
        a, b = b, a % b
    x = b
    y = isqrt(p - x * x)
    if x * x + y * y != p:
        raise CertificateError(f"two squares: {x}^2 + {y}^2 != {p}")
    return x, y


def _two_squares_small(n: int) -> Optional[tuple[int, int]]:
    """Certified two-square splittings used inside the three-squares search."""
    if n == 0:
        return 0, 0
    if n == 1:
        return 1, 0
    if n == 2:
        return 1, 1
    if n % 4 == 1 and _is_prime(n):
        return _two_squares_prime(n)
    if n % 4 == 2:
        half = n // 2
        if half % 4 == 1 and _is_prime(half):
            u, v = _two_squares_prime(half)
            return u + v, abs(u - v)
    return None


def three_squares(t: int) -> Optional[tuple[int, int, int]]:
    """Nonnegative (x, y, z) with x^2 + y^2 + z^2 = t, or None for 4^a(8b+7).

    After stripping factors of 4, descend x from isqrt(t) and split the
    remainder into two squares whenever it is 0, 1, 2, a prime 1 mod 4, or
    twice such a prime; prime density makes this terminate quickly.
    """
    if t < 0:
        return None
    if t == 0:
        return 0, 0, 0
    shift = 0
    while t % 4 == 0:
        t //= 4
        shift += 1
    if t % 8 == 7:
        return None
    for x in range(isqrt(t), -1, -1):
        rest = _two_squares_small(t - x * x)
        if rest is not None:
            y, z = rest
            sol = tuple(sorted((x << shift, y << shift, z << shift), reverse=True))
            if sum(c * c for c in sol) != t << (2 * shift):
                raise CertificateError(f"three squares: {sol} does not sum to {t << (2 * shift)}")
            return sol
    return None


def sqrt_pure(e: RationalLike, algebra: AlgebraParams) -> Optional[Quaternion]:
    """A pure quaternion s with s*s == e, or None when no such s exists.

    Existence first: a pure square root of a nonzero e exists iff the
    quadratic extension Q(sqrt(e)) embeds into the algebra, i.e. iff e is a
    nonsquare in every completion Q_v at which the algebra ramifies.  Then a
    search over scaled integer coordinate triples of shell height at most
    SQRT_MAX_HEIGHT constructs one; running past that height after a
    positive decision raises SearchBudgetExceeded (distinct from None).  A
    root that fails its check raises CertificateError.
    """
    e = rat(e)
    if e == 0:
        return algebra.zero()
    for place in ramified_places(algebra.a, algebra.b):
        if is_square_in_Qv(e, place):
            return None

    a_sf, a_scale = squarefree_part(algebra.a)
    b_sf, b_scale = squarefree_part(algebra.b)

    if (a_sf, b_sf) == (-1, -1):
        # Pure squares satisfy s*s = -(X^2+Y^2+Z^2) on the squarefree model;
        # clear the least denominator d (den = d1^2*d2, d = d1*d2) and solve
        # the integral three-squares problem X^2+Y^2+Z^2 = -e*d^2 directly.
        d2, d1 = _squarefree_int(e.denominator)
        d = d1 * d2
        sol = three_squares(-e.numerator * d2)
        if sol is None:
            raise CertificateError(f"sqrt_pure: no three squares for {e} despite local solvability")
        big_x, big_y, big_z = sol
        s = Quaternion(
            Fraction(0),
            Fraction(big_x, d) / a_scale,
            Fraction(big_y, d) / b_scale,
            Fraction(big_z, d) / (a_scale * b_scale),
            algebra,
        )
        return _checked_root(s, e)

    big_e = e.numerator * e.denominator
    den = e.denominator
    ab = a_sf * b_sf
    max_height = SQRT_MAX_HEIGHT
    for shell in range(1, max_height + 1):
        for m in range(1, shell + 1):
            for big_x in range(-shell, shell + 1):
                for big_y in range(-shell, shell + 1):
                    if max(m, abs(big_x), abs(big_y)) != shell:
                        continue
                    num = a_sf * big_x * big_x + b_sf * big_y * big_y - big_e * m * m
                    if num % ab:
                        continue
                    zz = num // ab
                    if zz < 0:
                        continue
                    big_z = isqrt(zz)
                    if big_z * big_z != zz:
                        continue
                    scale = Fraction(1, m * den)
                    s = Quaternion(
                        Fraction(0),
                        big_x * scale / a_scale,
                        big_y * scale / b_scale,
                        big_z * scale / (a_scale * b_scale),
                        algebra,
                    )
                    return _checked_root(s, e)
    raise SearchBudgetExceeded(
        f"sqrt_pure: representation of {e} exists but no solution of height <= {max_height}"
    )


def _checked_root(s: Quaternion, e: Fraction) -> Quaternion:
    """s itself, after checking that it is a pure square root of e."""
    if not s.is_pure() or s * s != s.algebra.scalar(e):
        raise CertificateError(f"sqrt_pure: {s} is not a pure square root of {e}")
    return s
