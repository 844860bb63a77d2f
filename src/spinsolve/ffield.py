"""Table-driven finite fields GF(p^k) at desk scale (q <= 16).

Elements are represented by indices 0..q-1; index sum(c_i p^i) encodes the
polynomial c_0 + c_1 t + ... over GF(p) reduced modulo a fixed irreducible:
t for a prime field, and for an extension field one hard-coded here so
that tables are deterministic across runs.  Field axioms are cheap to
check exhaustively at this scale, and the test suite does so.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FiniteField", "is_prime_power", "prime_power_decomposition"]

# Monic irreducibles over GF(p), coefficient lists low -> high degree
# (constant term first, leading 1 last).
_IRREDUCIBLES: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),          # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),       # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),    # t^4 + t + 1
    (3, 2): (2, 2, 1),          # t^2 + 2t + 2
}


def _factor_small(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    factors = _factor_small(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    ((p, k),) = factors.items()
    return p, k


def is_prime_power(q: int) -> bool:
    try:
        prime_power_decomposition(q)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class FiniteField:
    """GF(q) with exhaustive add/sub/mul/neg/inv tables."""

    q: int
    p: int = field(init=False)
    k: int = field(init=False)
    add: np.ndarray = field(init=False, repr=False)
    sub: np.ndarray = field(init=False, repr=False)
    mul: np.ndarray = field(init=False, repr=False)
    neg: np.ndarray = field(init=False, repr=False)
    inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        p, k = prime_power_decomposition(self.q)
        # a prime field is GF(p)[t]/(t), so every order takes one construction
        modulus = (0, 1) if k == 1 else _IRREDUCIBLES.get((p, k))
        if modulus is None:
            raise ValueError(f"no irreducible polynomial on file for GF({p}^{k})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        # coefficient vectors of every element, constant term first
        powers = p ** np.arange(k)
        vecs = np.arange(self.q)[:, np.newaxis] // powers % p
        x, y = vecs[:, np.newaxis], vecs[np.newaxis]
        add = ((x + y) % p @ powers).astype(np.int16)
        mul = (_poly_mulmod(x, y, modulus, p) @ powers).astype(np.int16)
        neg = (-vecs % p @ powers).astype(np.int16)
        units = mul[1:] == 1
        bad = np.flatnonzero(units.sum(axis=1) != 1)
        if len(bad):
            raise ValueError(f"element {bad[0] + 1} has no unique inverse in GF({self.q})")
        inv = np.concatenate([[0], units.argmax(axis=1)]).astype(np.int16)
        for name, table in (("add", add), ("sub", add[:, neg]), ("mul", mul),
                            ("neg", neg), ("inv", inv)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def power_map(self, exponent: int) -> np.ndarray:
        """Index table of x -> x^exponent (exponent >= 1), every x at once."""
        if exponent < 1:
            raise ValueError(f"power_map needs an exponent >= 1, got {exponent}")
        result = np.ones(self.q, dtype=np.int16)
        base = np.arange(self.q, dtype=np.int16)
        while exponent:
            if exponent & 1:
                result = self.mul[result, base]
            base = self.mul[base, base]
            exponent >>= 1
        return result

    def conjugation(self) -> np.ndarray:
        """x -> x^sqrt(q), the involutive automorphism used for Hermitian
        forms; requires q to be a square."""
        root = round(self.q ** 0.5)
        if root * root != self.q:
            raise ValueError(f"GF({self.q}) is not a quadratic extension")
        return self.power_map(root)

    def fixed_elements(self, automorphism: np.ndarray) -> list[int]:
        return [x for x in range(self.q) if automorphism[x] == x]


def _poly_mulmod(vx: np.ndarray, vy: np.ndarray, modulus, p: int) -> np.ndarray:
    """Coefficients of vx * vy modulo a monic polynomial over GF(p), for
    every pair of coefficient vectors (last axis, constant term first) that
    vx and vy broadcast to at once."""
    k = len(modulus) - 1
    shape = np.broadcast_shapes(vx.shape, vy.shape)[:-1]
    prod = np.zeros(shape + (2 * k - 1,), dtype=np.int64)
    for i in range(k):  # the product is a convolution of the coefficients
        prod[..., i:i + k] += vx[..., i, np.newaxis] * vy
    # t^deg = t^(deg-k) t^k, and t^k is minus the modulus's lower terms
    lower = np.array(modulus[:k])
    for deg in range(2 * k - 2, k - 1, -1):
        prod[..., deg - k:deg] -= prod[..., deg, np.newaxis] * lower
    return prod[..., :k] % p

