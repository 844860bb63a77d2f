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
        q = self.q
        vecs = [[(i // p**j) % p for j in range(k)] for i in range(q)]

        def to_idx(vec) -> int:
            return sum(c * p**j for j, c in enumerate(vec))

        add = np.zeros((q, q), dtype=np.int16)
        mul = np.zeros((q, q), dtype=np.int16)
        for x, vx in enumerate(vecs):
            for y, vy in enumerate(vecs):
                add[x, y] = to_idx([(cx + cy) % p for cx, cy in zip(vx, vy)])
                mul[x, y] = to_idx(_poly_mulmod(vx, vy, modulus, p))
        neg = np.array([int(np.where(add[x] == 0)[0][0]) for x in range(q)], dtype=np.int16)
        inv = np.zeros(q, dtype=np.int16)
        for x in range(1, q):
            hits = np.where(mul[x] == 1)[0]
            if len(hits) != 1:
                raise ValueError(f"element {x} has no unique inverse in GF({q})")
            inv[x] = hits[0]
        for name, table in (("add", add), ("sub", add[:, neg]), ("mul", mul),
                            ("neg", neg), ("inv", inv)):
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def power_map(self, exponent: int) -> np.ndarray:
        """Index table of x -> x^exponent (exponent >= 1)."""
        return np.array([_pow_idx(self.mul, x, exponent) for x in range(self.q)],
                        dtype=np.int16)

    def conjugation(self) -> np.ndarray:
        """x -> x^sqrt(q), the involutive automorphism used for Hermitian
        forms; requires q to be a square."""
        root = round(self.q ** 0.5)
        if root * root != self.q:
            raise ValueError(f"GF({self.q}) is not a quadratic extension")
        return self.power_map(root)

    def fixed_elements(self, automorphism: np.ndarray) -> list[int]:
        return [x for x in range(self.q) if automorphism[x] == x]


def _poly_mulmod(vx, vy, modulus, p: int) -> list[int]:
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, cx in enumerate(vx):
        if cx:
            for j, cy in enumerate(vy):
                prod[i + j] = (prod[i + j] + cx * cy) % p
    # reduce modulo the monic irreducible
    for deg in range(len(prod) - 1, k - 1, -1):
        coeff = prod[deg]
        if coeff:
            prod[deg] = 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - coeff * modulus[j]) % p
    return prod[:k]


def _pow_idx(mul: np.ndarray, x: int, e: int) -> int:
    result = 1
    base = x
    while e:
        if e & 1:
            result = int(mul[result, base])
        base = int(mul[base, base])
        e >>= 1
    return result
