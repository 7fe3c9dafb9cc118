"""Integer and polynomial arithmetic primitives.

Polynomials are lists of Python ints in ascending order of degree
([a0, a1, ..., an] for a0 + a1*x + ... + an*x^n), normalized so that the
last entry is nonzero; the zero polynomial is the empty list. Helpers that
take a modulus keep coefficients reduced into [0, m).
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# primes

_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def iter_primes(bound: int) -> Iterator[int]:
    """The primes <= bound in increasing order, by a segmented sieve of Eratosthenes.

    The base primes <= sqrt(bound) are yielded before any segment above them
    is sieved, so a caller that stops early pays only for what it drew.
    """
    if bound < 2:
        return
    root = math.isqrt(bound)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i :: i] = bytearray(len(base[i * i :: i]))
    small = [i for i in range(2, root + 1) if base[i]]
    yield from small
    seg_size = 1 << 16
    low = root + 1
    while low <= bound:
        high = min(low + seg_size - 1, bound)
        seg = bytearray([1]) * (high - low + 1)
        for p in small:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start > high:
                continue
            seg[start - low :: p] = bytearray(len(seg[start - low :: p]))
        yield from (i + low for i, flag in enumerate(seg) if flag)
        low = high + 1


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, as a list."""
    return list(iter_primes(bound))


def _mr_witness(n: int, a: int) -> bool:
    """True if a witnesses the compositeness of odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


# the first 64 primes, used as a fixed witness schedule above 2^64
_MR_WITNESSES_BIG = tuple(primes_up_to(311))


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic below 2^64 (Miller-Rabin with the witness set 2..37);
    above that it is a strong probable-prime test to the first 64 prime
    bases, which no known composite passes.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    witnesses = _MR_WITNESSES_64 if n < 1 << 64 else _MR_WITNESSES_BIG
    return not any(_mr_witness(n, a) for a in witnesses)


_RHO_TRIAL_PRIMES = primes_up_to(1000)


def _brent_rho(n: int, budget: int | float, rng: random.Random) -> tuple[int, int]:
    """One nontrivial factor of odd composite n, or 1 on budget exhaustion.

    Returns (factor, iterations_used). Brent's cycle variant with batched
    gcds; the budget caps total iterations across restarts.
    """
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, used
        # g == n even after backtracking, or budget ran out: retry with new c
    return 1, used


def pollard_factor(n: int, budget: int | float = 10**6, seed: int = 0) -> tuple[dict[int, int], int]:
    """Partially factor n >= 1 within an iteration budget.

    Returns (factors, cofactor) where factors maps primes to exponents and
    cofactor is the unfactored remainder (1 when the factorization is
    complete). Small primes are removed by trial division first; the budget
    only limits the rho iterations spent on what is left.
    """
    if n < 1:
        raise ValueError("n must be positive")
    factors: dict[int, int] = {}
    for p in _RHO_TRIAL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    rng = random.Random(seed)
    remaining = budget
    stack = [n] if n > 1 else []
    cofactor = 1
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d, used = _brent_rho(m, remaining, rng)
        remaining -= used
        if d == 1:
            cofactor *= m
        else:
            stack.extend((d, m // d))
    return factors, cofactor


def factorize(n: int, budget: int | float = 10**7, seed: int = 0) -> dict[int, int]:
    """Complete factorization of n >= 1; raises if the budget is too small."""
    factors, cofactor = pollard_factor(n, budget, seed)
    if cofactor != 1:
        raise ValueError(f"could not fully factor {n}: cofactor {cofactor} remains")
    return factors


def is_primitive_root(a: int, q: int) -> bool:
    """True if a generates the multiplicative group mod the prime q.

    gcd(a, q) = 1 is expected; a ≡ 0 mod q returns False (not a unit, so
    not a generator) rather than raising.
    """
    if not is_prime(q):
        raise ValueError("q not prime")
    a %= q
    if q == 2:
        return a == 1
    if a == 0:
        return False
    for p in factorize(q - 1):
        if pow(a, (q - 1) // p, q) == 1:
            return False
    return True


# ---------------------------------------------------------------------------
# CRT

def crt_integers(residues: list[tuple[int, int]]) -> int:
    """Solve x ≡ r_i (mod m_i) for all i; returns x in [0, lcm of moduli).

    Moduli need not be coprime; raises ValueError("inconsistent congruence")
    when no solution exists.
    """
    if not residues:
        raise ValueError("no congruences given")
    x, m = residues[0]
    if m <= 0:
        raise ValueError("moduli must be positive")
    x %= m
    for r, n in residues[1:]:
        if n <= 0:
            raise ValueError("moduli must be positive")
        g = math.gcd(m, n)
        if (r - x) % g != 0:
            raise ValueError("inconsistent congruence")
        lcm = m // g * n
        # x + m*k ≡ r (mod n)  =>  k ≡ (r-x)/g * inv(m/g) (mod n/g)
        k = (r - x) // g * pow(m // g, -1, n // g) % (n // g)
        x = (x + m * k) % lcm
        m = lcm
    return x


# ---------------------------------------------------------------------------
# polynomials over Z and Z/m

def poly_trim(c: list[int]) -> list[int]:
    """Strip trailing zero coefficients (canonical form)."""
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_reduce(c: list[int], m: int) -> list[int]:
    return poly_trim([a % m for a in c])


def poly_deg(c: list[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(c) - 1


def poly_add(a: list[int], b: list[int], m: int | None = None) -> list[int]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    if m is not None:
        out = [c % m for c in out]
    return poly_trim(out)


def poly_sub(a: list[int], b: list[int], m: int | None = None) -> list[int]:
    return poly_add(a, [-c for c in b], m)


def poly_mul(a: list[int], b: list[int], m: int | None = None) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    if m is not None:
        out = [c % m for c in out]
    return poly_trim(out)


def poly_scale(a: list[int], s: int, m: int | None = None) -> list[int]:
    out = [s * c for c in a]
    if m is not None:
        out = [c % m for c in out]
    return poly_trim(out)


def poly_eval(a: list[int], x: int, m: int | None = None) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
        if m is not None:
            acc %= m
    return acc


def poly_derivative(a: list[int], m: int | None = None) -> list[int]:
    out = [i * a[i] for i in range(1, len(a))]
    if m is not None:
        out = [c % m for c in out]
    return poly_trim(out)


def poly_compose_shift(a: list[int], s: int, m: int | None = None) -> list[int]:
    """a(x + s), by the Ruffini-Horner Taylor shift in place.

    n(n + 1)/2 multiply-adds on one list for a of degree n, each reduced
    mod m when m is given.
    """
    out = list(a) if m is None else [c % m for c in a]
    n = len(out) - 1
    for i in range(n):
        c = out[n]  # out[j + 1] as the inner loop reaches j
        for j in range(n - 1, i - 1, -1):
            c = out[j] = out[j] + s * c if m is None else (out[j] + s * c) % m
    return poly_trim(out)


# ---------------------------------------------------------------------------
# polynomials over F_p

def fp_monic(a: list[int], p: int) -> list[int]:
    a = poly_reduce(a, p)
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


class _Slots:
    """The packed (Kronecker-substituted) form of (Z/p)[x]: Euclid, powers and the split.

    p need not be prime. A step is sound over Z/p for any modulus p >= 2
    when the leads it divides by are units mod p: the Barrett step uses no
    primality, divide takes the inverse of the lead as an argument, and
    pseudo_remainder takes none. The F_p[x] helpers pass primes; the
    multimodular resultant passes odd moduli and checks that its leads are
    units.

    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
    Algebra, section 8.4) packs a polynomial of degree at most n into one
    Python int, coefficient i in the width-bit slot i, so that a product of
    polynomials, or of a polynomial and a scalar, is one big-integer product.
    A slot holds any nonnegative integer congruent to its coefficient mod p.
    A division step reads the top slot of a mod p as c and adds
    (p - c / lead(b)) b to a, shifted to that slot, which leaves it 0 mod p;
    nothing is subtracted, so no slot borrows. divide starts at the top
    nonzero slot of a and records a quotient only when asked. gcd takes the
    same steps from the low end, where the slot to clear is slot 0 and the
    division by x that follows is one shift. pow_mod is the one square and
    multiply, for fp_pow_mod and for each Frobenius step h -> h^p mod f of
    _fp_ddf; mul_mod takes each of its products mod f by polynomial Barrett,
    two big-integer products in place of a division step per slot.
    A packed Barrett step brings every slot below 3p: with k = p.bit_length()
    and mu = 2^s // p, the slot quotient q = ((v >> (k - 1)) mu) >> (s - k + 1)
    has q <= v / p < q + 3, and the product fits the width 2 (s - k + 1).

    Slots still to be read stay below 2^s, s = bits of 12 (n + 1) p^2, so
    none carries into the next (a carry out of a slot already read only
    reaches slots that are masked off): a product of residues of degree
    below n with slots below 3p has slots below 9 n p^2, its Barrett
    remainder mod a monic modulus of degree n adds fewer than n terms below
    3 p^2 to them, and a division of a residue of degree at most n by one,
    both with slots below 4p (as h - x has), takes at most n + 1 steps of
    below 4 p^2, and so does gcd between two swaps. A pseudo-remainder step,
    lead(b) a + (p - t) x^i b, forms slots below p 3p + p 3p = 6 p^2. A
    Barrett step after each product, remainder, swap and pseudo-remainder
    step keeps the width O(log p + log n) over any number of steps.
    """

    def __init__(self, p: int, n: int) -> None:
        s = (12 * (n + 1) * p * p).bit_length()
        k = p.bit_length()
        self.p = p
        self.width = w = 2 * (s - k + 1)
        self.slot = (1 << w) - 1
        self._mu = (1 << s) // p
        self._drop, self._down = k - 1, s - k + 1
        ones = ((1 << (n + 1) * w) - 1) // self.slot  # a 1 in each of the slots 0 .. n
        self._low = ones * ((1 << (w - k + 1)) - 1)
        self._high = ones * ((1 << (w - self._down)) - 1)

    def pack(self, coeffs: list[int]) -> int:
        """Coefficients in [0, p) into their slots."""
        packed, w = 0, self.width
        for c in reversed(coeffs):
            packed = (packed << w) | c
        return packed

    def unpack(self, packed: int, count: int) -> list[int]:
        """The coefficients mod p of slots 0 .. count - 1, trimmed."""
        w, slot, p = self.width, self.slot, self.p
        return poly_trim([(packed >> i * w & slot) % p for i in range(count)])

    def reduce(self, packed: int) -> int:
        """Each slot, below 2^s, to a congruent value below 3p (one Barrett step)."""
        q = (((packed >> self._drop & self._low) * self._mu) >> self._down) & self._high
        return packed - q * self.p

    def divide(self, a: int, b: int, db: int, inv: int, q: list[int] | None = None) -> int:
        """Packed a mod b over F_p in the slots below db, each below 2^s; b of degree db.

        inv is the inverse of lead(b) mod p. When a list q of deg a - db + 1
        entries is given, q[i] receives the quotient coefficient of x^i.
        """
        p, slot, w = self.p, self.slot, self.width
        low = db * w
        for i in range((a.bit_length() - 1) // w - db, -1, -1):
            t = (a >> low + i * w & slot) * inv % p
            if t:
                if q is not None:
                    q[i] = t
                a += (p - t) * b << i * w
            elif not a & ((1 << low + i * w) - 1):  # every lower slot is 0, so is the rest
                break
        return a & ((1 << low) - 1)

    def coefficient(self, packed: int, i: int) -> int:
        """The coefficient mod p in slot i."""
        return (packed >> i * self.width & self.slot) % self.p

    def degree(self, packed: int, d: int) -> int:
        """The top slot i <= d of packed that is nonzero mod p, or -1 when there is none."""
        while d >= 0 and not self.coefficient(packed, d):
            d -= 1
        return d

    def pseudo_remainder(self, a: int, da: int, b: int, db: int, lead: int) -> tuple[int, int]:
        """(r, e): packed r = lead^e a mod b in the slots below db, each below 3p.

        a has degree da and b degree db >= 1, slots below 3p, and lead is
        lc(b) mod p. No inverse is taken: a step at the top slot i + db of a,
        which holds t mod p, replaces a by lead a + (p - t) x^i b, in which
        that slot is 0 mod p. The slot is dropped from a, and b's top slot is
        left out of the product, so only slots below it are formed, each
        below 3p p + p 3p, and one Barrett step brings them below 3p. e counts
        the steps with t nonzero; a slot with t = 0 is only dropped.
        """
        w, p = self.width, self.p
        rest = b & ((1 << db * w) - 1)
        e = 0
        for top in range(da, db - 1, -1):
            v = a >> top * w  # the top slot: nothing above it is kept
            a -= v << top * w
            if t := v % p:
                a = self.reduce(lead * a + ((p - t) * rest << (top - db) * w))
                e += 1
        return a, e

    def quotient(self, a: int, da: int, b: int, db: int) -> list[int]:
        """The quotient coefficients of packed a of degree da by monic packed b of degree db."""
        q = [0] * (da - db + 1)
        self.divide(a, b, db, 1, q)
        return q

    def gcd(self, a: int, da: int, b: int, db: int) -> tuple[int, int]:
        """(g, dg): the monic gcd of packed a and b, slots below 3p, and its degree.

        da and db are the exact degrees, -1 for 0; so is dg when both are 0.
        Euclid runs from the low end. With the powers of x that divide a and
        b taken out (the smaller one comes back on the result), both constant
        terms are nonzero and gcd(a, b) = gcd((a - t b) / x, b) for
        t = a(0) / b(0): a step clears slot 0 and shifts it out. a and b swap
        whenever the degree bound of a falls below that of b, so the two
        bounds sum down by at least one per step.
        """
        w, slot, p = self.width, self.slot, self.p
        if da < db:
            a, da, b, db = b, db, a, da
        if db < 0:  # gcd(a, 0) is a made monic
            if da < 0:
                return 0, -1
            return self.reduce(a * pow(self.coefficient(a, da), -1, p)), da
        va = vb = 0  # the powers of x that divide a and b
        while not (a >> va * w & slot) % p:
            va += 1
        while not (b >> vb * w & slot) % p:
            vb += 1
        a, da, b, db = a >> va * w, da - va, b >> vb * w, db - vb
        if da < db:
            a, da, b, db = b, db, a, da
        inv = pow((b & slot) % p, -1, p)
        while a:
            a = (a + (p - (a & slot) * inv % p) * b) >> w
            da -= 1
            while a and not (a & slot) % p:
                a, da = a >> w, da - 1
            if a and da < db:
                a, da, b, db = b, db, self.reduce(a), da
                inv = pow((b & slot) % p, -1, p)
        db = self.degree(b, db)
        g, v = self.reduce(b * pow(self.coefficient(b, db), -1, p)), min(va, vb)
        return g << v * w, db + v

    def mul_mod(self, a: int, b: int, mod: int, n: int) -> int:
        """Packed a b mod monic packed mod of degree n, for residues a, b with slots below 3p.

        A product A that reaches slot n is reduced by polynomial Barrett: with
        A = A1 x^n + A0 and mu = x^(2n - 2) div mod, its quotient by mod is
        A1 mu div x^(n - 2) exactly, as deg A <= 2n - 2, and its remainder is
        A0 plus the low n slots of that quotient times -mod.
        """
        a *= b
        top = n * self.width
        if a >> top:
            mu, neg = self._barrett(mod, n)
            q = self.reduce(self.reduce(a >> top) * mu >> top - 2 * self.width)
            low = (1 << top) - 1
            a = (a & low) + (q * neg & low)
        return self.reduce(a)

    @functools.lru_cache(maxsize=16)
    def _barrett(self, mod: int, n: int) -> tuple[int, int]:
        """(mu, -mod) packed for mul_mod: x^(2n - 2) div mod, and the low n slots of -mod mod p."""
        mu = self.pack(self.quotient(1 << (2 * n - 2) * self.width, 2 * n - 2, mod, n))
        return mu, self.pack([-c % self.p for c in self.unpack(mod, n)])

    def pow_mod(self, base: int, e: int, mod: int, n: int) -> int:
        """Packed base^e mod monic packed mod of degree n, e >= 1, base a residue, slots below 3p."""
        acc = base
        for bit in bin(e)[3:]:
            acc = self.mul_mod(acc, acc, mod, n)
            if bit == "1":
                acc = self.mul_mod(acc, base, mod, n)
        return acc


@functools.lru_cache(maxsize=64)
def _slots(p: int, n: int) -> _Slots:
    """The layout for p and degrees up to n, built once per pair."""
    return _Slots(p, n)


def fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p (b nonzero), on packed integers (_Slots)."""
    a = poly_reduce(a, p)
    b = poly_reduce(b, p)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    slots = _slots(p, max(len(a), len(b)))
    db = len(b) - 1
    q = [0] * (len(a) - db)
    r = slots.divide(slots.pack(a), slots.pack(b), db, pow(b[-1], -1, p), q)
    return q, slots.unpack(r, db)


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p, by Euclid on packed integers (_Slots)."""
    a = poly_reduce(a, p)
    b = poly_reduce(b, p)
    slots = _slots(p, max(len(a), len(b)))
    g, dg = slots.gcd(slots.pack(a), len(a) - 1, slots.pack(b), len(b) - 1)
    return slots.unpack(g, dg + 1)


def fp_extgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) with s*a + t*b = g = monic gcd(a, b) over F_p."""
    r0, r1 = poly_reduce(a, p), poly_reduce(b, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, p), p)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    lead_inv = pow(r0[-1], -1, p)
    return (
        poly_scale(r0, lead_inv, p),
        poly_scale(s0, lead_inv, p),
        poly_scale(t0, lead_inv, p),
    )


def fp_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod) over F_p, by square and multiply on packed integers (_Slots.pow_mod).

    e = 0 gives [1]; for e >= 1 a constant modulus or a base divisible by
    the modulus gives [].
    """
    if e < 0:
        raise ValueError("negative exponent")
    mod = fp_monic(mod, p)
    if not mod:
        raise ZeroDivisionError("division by zero polynomial")
    base = fp_divmod(base, mod, p)[1]
    if e == 0:
        return [1]
    if not base:
        return []
    n = poly_deg(mod)
    slots = _slots(p, n)
    return slots.unpack(slots.pow_mod(slots.pack(base), e, slots.pack(mod), n), n)


def _fp_pth_root(a: list[int], p: int) -> list[int]:
    """p-th root of a polynomial of the form g(x^p) over F_p."""
    # coefficients are in F_p, where c^(1/p) = c
    return poly_trim([a[i] for i in range(0, len(a), p)])


def fp_squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of monic f over F_p.

    Returns [(g_e, e), ...] with each g_e monic squarefree, pairwise coprime,
    and f = prod g_e^e; multiplicities ascending. The gcds and exact
    divisions of the walk stay on packed integers (_Slots); once the gcd c
    of the walk is 1 (at once for squarefree f), the piece left is the last
    one, and nothing is divided by 1.
    """
    out: dict[int, list[int]] = {}

    def accumulate(g: list[int], mult: int) -> None:
        if poly_deg(g) < 1:
            return
        if mult in out:
            out[mult] = poly_mul(out[mult], g, p)
        else:
            out[mult] = g

    def walk(f: list[int], outer: int) -> None:
        if poly_deg(f) < 1:
            return
        fd = poly_derivative(f, p)
        if not fd:
            walk(_fp_pth_root(f, p), outer * p)
            return
        slots = _slots(p, len(f))
        packed, df = slots.pack(f), len(f) - 1
        c, dc = slots.gcd(packed, df, slots.pack(fd), len(fd) - 1)
        w, dw, i = packed, df, 1
        if dc > 0:
            w, dw = slots.pack(slots.quotient(packed, df, c, dc)), df - dc
        while dc > 0 and dw > 0:
            y, dy = slots.gcd(w, dw, c, dc)
            accumulate(slots.quotient(w, dw, y, dy), i * outer)
            w, dw = y, dy
            c, dc = slots.pack(slots.quotient(c, dc, y, dy)), dc - dy
            i += 1
        accumulate(slots.unpack(w, dw + 1), i * outer)  # once c = 1, w is the last piece
        if dc > 0:
            walk(_fp_pth_root(slots.unpack(c, dc + 1), p), outer * p)

    walk(fp_monic(f, p), 1)
    return [(g, e) for e, g in sorted(out.items())]


@dataclass(frozen=True)
class Factorization:
    """Factorization over F_p: unit * prod(poly^mult)."""

    p: int
    unit: int
    factors: tuple[tuple[tuple[int, ...], int], ...]


def _fp_ddf(f: list[int], p: int) -> Iterator[tuple[list[int], int]]:
    """Distinct-degree split of monic squarefree f, yielding (product, degree).

    At step d, h = x^(p^d) mod f and gcd(h - x, f) is the product of the
    irreducible factors of degree d, which are divided out before step
    d + 1; once 2d exceeds deg f, what is left is irreducible. Each block is
    yielded as soon as it is found. For f that is not squarefree only the
    first block is meaningful: its degree is the least degree of an
    irreducible factor of f. f is packed once (_Slots). h, h - x (as
    h + (p - 1) x, so that no slot goes negative) and each cofactor, packed
    from the quotient its division records, stay packed; only the yielded
    blocks are unpacked.
    """
    n = poly_deg(f)
    slots = _slots(p, n)
    w = slots.width
    f = slots.pack(f)
    h = 1 << w  # x
    d = 0
    while n > 0:
        d += 1
        if 2 * d > n:
            yield slots.unpack(f, n + 1), n
            return
        h = slots.pow_mod(h, p, f, n)
        h_x = h + ((p - 1) << w)
        g, dg = slots.gcd(h_x, slots.degree(h_x, n - 1), f, n)
        if dg > 0:
            yield slots.unpack(g, dg + 1), d
            f, n = slots.pack(slots.quotient(f, n, g, dg)), n - dg
            h = slots.reduce(slots.divide(h, f, n, 1))


def _fp_edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Equal-degree split of monic squarefree f (all factors of degree d)."""
    n = poly_deg(f)
    if n == d:
        return [f]
    while True:
        a = [rng.randrange(p) for _ in range(n - 1)] + [1]
        if p == 2:
            # trace map: a + a^2 + ... + a^(2^(d-1))
            t = a
            acc = a
            for _ in range(d - 1):
                t = fp_pow_mod(t, 2, f, p)
                acc = poly_add(acc, t, p)
            g = fp_gcd(acc, f, p)
        else:
            b = fp_pow_mod(a, (p**d - 1) // 2, f, p)
            g = fp_gcd(poly_sub(b, [1], p), f, p)
        if 0 < poly_deg(g) < n:
            return _fp_edf(g, d, p, rng) + _fp_edf(fp_divmod(f, g, p)[0], d, p, rng)


def fp_factor(f: list[int], p: int) -> Factorization:
    """Full factorization of f over F_p (Cantor-Zassenhaus).

    Factors are sorted by degree then by coefficient tuple, so the result
    does not depend on the random splits, which use a fixed generator.
    """
    if not is_prime(p):
        raise ValueError("modulus not prime")
    fbar = poly_reduce(f, p)
    if not fbar:
        raise ValueError("zero polynomial mod p")
    unit = fbar[-1]
    rng = random.Random(0)
    factors: list[tuple[tuple[int, ...], int]] = []
    for sqfree, mult in fp_squarefree_decomposition(fbar, p):
        for block, d in _fp_ddf(sqfree, p):
            for irr in _fp_edf(block, d, p, rng):
                factors.append((tuple(irr), mult))
    factors.sort(key=lambda fe: (len(fe[0]), fe[0]))
    return Factorization(p=p, unit=unit, factors=tuple(factors))


def fp_is_irreducible(f: list[int], p: int) -> bool:
    """Whether f of degree n >= 1 is irreducible over F_p.

    Distinct-degree test with early abort (von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 14): f is irreducible iff the first block of the
    distinct-degree split of monic f has degree n. This is exact for any f,
    squarefree or not: before the first nontrivial gcd(x^(p^d) - x, f), f has
    no irreducible factor of degree below d, and a reducible f has one of
    degree at most n/2, which the split reaches first. A candidate with a
    root in F_p is rejected after one Frobenius step and one gcd.
    """
    f = fp_monic(f, p)
    n = poly_deg(f)
    if n < 1:
        return False
    return next(_fp_ddf(f, p))[1] == n


# ---------------------------------------------------------------------------
# Hensel lifting

def hensel_lift_factorization(
    f: list[int], factors: list[list[int]], p: int, m: int
) -> list[list[int]]:
    """Lift a coprime monic factorization of f mod p to mod p^m.

    f must be monic with f ≡ prod(factors) mod p, the factors monic and
    pairwise coprime mod p. Returns the unique lifts, coefficients in
    [0, p^m).

    Kept only as the reference the tests compare localtypes.recognize_type
    against; it goes with fp_extgcd once the benchmark stops tracing it by
    name (ROADMAP item 1).
    """
    if not f or f[-1] % p != 1:
        raise ValueError("f must be monic")
    if m < 1:
        raise ValueError("target exponent must be >= 1")
    red = [fp_monic(g, p) for g in factors]
    if any(poly_deg(g) < 1 for g in red):
        raise ValueError("factors must be nonconstant")
    for i in range(len(red)):
        for j in range(i + 1, len(red)):
            if poly_deg(fp_gcd(red[i], red[j], p)) != 0:
                raise ValueError("non-coprime factorization")
    prod = [1]
    for g in red:
        prod = poly_mul(prod, g, p)
    if poly_trim(poly_sub(poly_reduce(f, p), prod, p)):
        raise ValueError("factors do not multiply to f mod p")

    pm = p**m

    def lift_pair(target: list[int], g: list[int], h: list[int]) -> tuple[list[int], list[int]]:
        # target ≡ g*h mod p, all monic; returns lifts mod p^m
        gbar, hbar = poly_reduce(g, p), poly_reduce(h, p)
        one, s, t = fp_extgcd(gbar, hbar, p)
        if one != [1]:
            raise ValueError("non-coprime factorization")
        G = [c % pm for c in gbar]
        H = [c % pm for c in hbar]
        modulus = p
        while modulus < pm:
            diff = poly_sub(poly_reduce(target, pm), poly_mul(G, H, pm))
            e = poly_reduce([c // modulus for c in diff], p)
            # split the correction: G += modulus*w, H += modulus*r with
            # gbar*r + hbar*w = e, deg r < deg hbar, deg w < deg gbar
            q, r = fp_divmod(poly_mul(s, e, p), hbar, p)
            w = poly_add(poly_mul(t, e, p), poly_mul(q, gbar, p), p)
            G = poly_add(G, poly_scale(w, modulus), pm)
            H = poly_add(H, poly_scale(r, modulus), pm)
            modulus *= p
        return G, H

    def lift_list(target: list[int], parts: list[list[int]]) -> list[list[int]]:
        if len(parts) == 1:
            return [poly_reduce(target, pm)]
        rest = [1]
        for g in parts[1:]:
            rest = poly_mul(rest, g, p)
        G, H = lift_pair(target, parts[0], rest)
        return [G] + lift_list(H, parts[1:])

    return lift_list(poly_reduce(f, pm), red)


# ---------------------------------------------------------------------------
# resultants

# Bits of the Hadamard bound from which resultant takes the multimodular path.
RESULTANT_CUTOFF_BITS = 8000

# The moduli of the multimodular resultant, extended on demand by _moduli.
_MODULI: list[int] = []

def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(delta + 1) * a mod b over Z, delta = deg a - deg b.

    One pass: the usual loop, which scales by lc(b) before each step, runs on
    the top delta + 1 coefficients alone to find the lead t_k it removes at
    each shift k. Each lower coefficient is then formed once,
    r_i = lc(b)^(delta + 1) a_i - sum_k lc(b)^k t_k b_(i-k).
    """
    db, lb = poly_deg(b), b[-1]
    top, t = a[db:], []
    padded = [0] * len(top) + b  # top[j] meets padded[len(padded) - 1 - k + j] at shift k
    for k in range(len(top) - 1, -1, -1):
        t.append(top[k])
        top = [lb * c - t[-1] * bc for c, bc in zip(top[:k], padded[len(padded) - 1 - k :])]
    scale = lb ** len(t)
    r = [scale * c for c in a[:db]]
    for k, tk in enumerate(reversed(t)):
        if tk:
            tk *= lb**k
            r[k:] = [c - tk * bc for c, bc in zip(r[k:], b)]
    return poly_trim(r)


def _exact_div(a: list[int], d: int) -> list[int]:
    out = []
    for c in a:
        q, rem = divmod(c, d)
        if rem:
            raise ArithmeticError("inexact division in subresultant sequence")
        out.append(q)
    return out


def resultant(a: list[int], b: list[int]) -> int:
    """Resultant of two nonzero integer polynomials, exact over Z.

    Convention: Res(a, b) = lc(a)^deg(b) * prod b(alpha_i) over the roots of
    a, so Res(a, b) = (-1)^(deg a * deg b) Res(b, a) and Res(a, c) = c^deg(a)
    for constant c. Two paths give the same value. Below
    RESULTANT_CUTOFF_BITS bits of the Hadamard bound |Res(a, b)| <=
    ||a||_2^deg b ||b||_2^deg a (_hadamard_bits), the signed subresultant PRS
    (_resultant_prs) runs over Z; at or above it, the multimodular path
    (_resultant_multimodular) runs Euclid over Z/q on packed integers for
    enough moduli q and combines the residues by CRT.
    """
    a, b = poly_trim(list(a)), poly_trim(list(b))
    if not a or not b:
        raise ValueError("resultant of zero polynomial")
    if _hadamard_bits(a, b) < RESULTANT_CUTOFF_BITS:
        return _resultant_prs(a, b)
    return _resultant_multimodular(a, b)


def _hadamard_bits(a: list[int], b: list[int]) -> int:
    """Bits of the Hadamard bound of the Sylvester matrix: |Res(a, b)| < 2^bits.

    The rows of a have norm ||a||_2 < 2^(na / 2), na the bits of the sum of
    squares, and there are deg b of them; likewise deg a rows of b.
    """
    na = sum(c * c for c in a).bit_length()
    nb = sum(c * c for c in b).bit_length()
    return (poly_deg(b) * na + poly_deg(a) * nb + 1) // 2


def _moduli() -> Iterator[int]:
    """The moduli of the multimodular resultant, in order, memoized in _MODULI.

    Each is the next odd number above 2^128 that has no prime factor below
    1000 and is coprime to every modulus before it, found by two gcds. None
    is tested for primality: the multimodular path needs moduli that are
    pairwise coprime and leads that are units, and it checks the latter.
    """
    i, product, small = 0, 1, 0
    while True:
        if i == len(_MODULI):
            small = small or math.prod(primes_up_to(1000)[1:])
            q = _MODULI[-1] + 2 if _MODULI else (1 << 128) + 1
            while math.gcd(q, small) != 1 or math.gcd(q, product) != 1:
                q += 2
            _MODULI.append(q)
        product *= _MODULI[i]
        yield _MODULI[i]
        i += 1


def _resultant_mod(a: list[int], b: list[int], q: int) -> tuple[int, int] | None:
    """(num, den) with Res(a, b) den ≡ num mod q, for deg a >= deg b.

    None when lc(a) lc(b) is not a unit mod q. Euclid over Z/q on packed
    integers: a round replaces (a, b) by (b, r) for the pseudo-remainder
    r = lc(b)^e a mod b (_Slots.pseudo_remainder), which takes no inverse.
    Over any commutative ring,
    lc(b)^(e db) Res(a, b) = (-1)^(da db) lc(b)^(da - dr) Res(b, r),
    with dr the top slot of r that is nonzero mod q. So each round puts the
    power of lc(b) on the right into num and the one on the left into den,
    never netting the two: den is then a unit mod q only if every lc(b) was,
    and only then is Res(a, b) = num / den, which the caller's inverse of
    den checks. A constant c ends the run with Res(a, c) = c^deg a, and a
    zero remainder of b of positive degree ends it with num = 0.
    """
    if math.gcd(a[-1] * b[-1], q) != 1:
        return None
    da, db = len(a) - 1, len(b) - 1
    slots = _Slots(q, da)
    pa, pb = slots.pack([c % q for c in a]), slots.pack([c % q for c in b])
    num = den = 1
    while db > 0:
        lead = slots.coefficient(pb, db)
        r, e = slots.pseudo_remainder(pa, da, pb, db, lead)
        dr = slots.degree(r, db - 1)
        num = num * pow(lead, da - dr, q) % q
        den = den * pow(lead, e * db, q) % q
        if da & db & 1:
            num = -num
        pa, da, pb, db = pb, db, r, dr
    if db < 0:
        return 0, den
    return num * pow(slots.coefficient(pb, 0), da, q) % q, den


def _resultant_multimodular(a: list[int], b: list[int]) -> int:
    """Res(a, b) of nonzero integer polynomials, from its residues mod the moduli (Collins 1971).

    Cohen, A Course in Computational Algebraic Number Theory, section 3.3.
    The Sylvester determinant commutes with reduction mod q, and when both
    leads are units mod q the reductions keep their degrees, so Res(a, b)
    mod q = num / den for the pair (num, den) of _resultant_mod. A q at
    which a lead or den is not a unit is skipped.
    The residues are combined by CRT, with one inverse per modulus, until
    the product M of the moduli used exceeds twice the Hadamard bound;
    Res(a, b) is then the residue of absolute value below M / 2.
    """
    bits = _hadamard_bits(a, b)
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    x, m = 0, 1
    for q in _moduli():
        if m >> bits + 1:
            break
        residue = _resultant_mod(a, b, q)
        if residue is None:
            continue
        num, den = residue
        try:
            inv = pow(den * m % q, -1, q)
        except ValueError:  # den is not a unit mod q
            continue
        x += m * ((num - x % q * den) * inv % q)
        m *= q
    return sign * (x - m if 2 * x > m else x)


def _resultant_prs(a: list[int], b: list[int]) -> int:
    """Res(a, b) of nonzero integer polynomials by the signed subresultant PRS.

    Brown-Traub recurrence, with exact divisions over Z.
    """
    sign = 1
    if poly_deg(a) < poly_deg(b):
        if poly_deg(a) % 2 == 1 and poly_deg(b) % 2 == 1:
            sign = -1
        a, b = b, a
    f, g = a, b
    m = poly_deg(g)
    d = poly_deg(f) - m
    h = _pseudo_rem(f, g)
    if d % 2 == 0:  # first divisor is (-1)^(d+1)
        h = [-c for c in h]
    lc = g[-1]
    c = lc**d
    s_val, s_deg = c, m
    c = -c
    while h:
        k = poly_deg(h)
        f, g, m, d = g, h, k, m - k
        h = _exact_div(_pseudo_rem(f, g), -lc * c**d)
        lc = g[-1]
        if d > 1:
            q, rem = divmod((-lc) ** d, c ** (d - 1))
            if rem:
                raise ArithmeticError("inexact division in subresultant sequence")
            c = q
        else:
            c = -lc
        s_val, s_deg = -c, k
    if s_deg > 0:
        return 0
    return sign * s_val
