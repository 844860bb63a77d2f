"""Exhaustive checks of the table-driven finite fields."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsolve import ffield
from spinsolve.ffield import FiniteField, is_prime_power, prime_power_decomposition

DESK_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_field_axioms_exhaustively(q):
    f = FiniteField(q)
    elems = range(q)
    for a, b in itertools.product(elems, repeat=2):
        assert f.add[a, b] == f.add[b, a]
        assert f.mul[a, b] == f.mul[b, a]
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add[f.add[a, b], c] == f.add[a, f.add[b, c]]
        assert f.mul[f.mul[a, b], c] == f.mul[a, f.mul[b, c]]
        assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]
    for a in elems:
        assert f.add[a, 0] == a
        assert f.mul[a, 1] == a
        assert f.add[a, f.neg[a]] == 0
        if a:
            assert f.mul[a, f.inv[a]] == 1


def reference_tables(q):
    """GF(q)'s five tables one pair at a time: coefficient vectors added
    and multiplied as polynomials, products reduced degree by degree by the
    field's monic modulus (t for a prime field)."""
    p, k = prime_power_decomposition(q)
    modulus = (0, 1) if k == 1 else ffield._IRREDUCIBLES[(p, k)]
    vecs = [[(x // p**j) % p for j in range(k)] for x in range(q)]

    def index(vec):
        return sum(c * p**j for j, c in enumerate(vec))

    def mulmod(vx, vy):
        prod = [0] * (2 * k - 1)
        for i, cx in enumerate(vx):
            for j, cy in enumerate(vy):
                prod[i + j] = (prod[i + j] + cx * cy) % p
        for deg in range(2 * k - 2, k - 1, -1):
            coeff, prod[deg] = prod[deg], 0
            for j in range(k):
                prod[deg - k + j] = (prod[deg - k + j] - coeff * modulus[j]) % p
        return prod[:k]

    add = [[index([(a + b) % p for a, b in zip(vx, vy)]) for vy in vecs] for vx in vecs]
    mul = [[index(mulmod(vx, vy)) for vy in vecs] for vx in vecs]
    neg = [add[x].index(0) for x in range(q)]
    return {"add": add, "sub": [[add[x][neg[y]] for y in range(q)] for x in range(q)],
            "mul": mul, "neg": neg, "inv": [0] + [mul[x].index(1) for x in range(1, q)]}


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_tables_match_pairwise_polynomial_arithmetic(q):
    f = FiniteField(q)
    for name, table in reference_tables(q).items():
        assert getattr(f, name).dtype == np.int16
        assert getattr(f, name).tolist() == table, name


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_frobenius_is_additive_and_multiplicative(q):
    f = FiniteField(q)
    fr = f.power_map(f.p)
    for a, b in itertools.product(range(q), repeat=2):
        assert fr[f.add[a, b]] == f.add[fr[a], fr[b]]
        assert fr[f.mul[a, b]] == f.mul[fr[a], fr[b]]


@pytest.mark.parametrize("q", DESK_ORDERS)
def test_power_map_is_repeated_multiplication(q):
    f = FiniteField(q)
    want = np.arange(q)
    for e in range(1, 2 * q + 1):
        got = f.power_map(e)
        assert got.dtype == np.int16 and got.tolist() == want.tolist(), e
        want = f.mul[want, np.arange(q)]


def test_power_map_refuses_exponents_below_one():
    with pytest.raises(ValueError, match="exponent >= 1, got 0"):
        FiniteField(4).power_map(0)
    # a negative exponent never ends a right shift at 0, so should the guard
    # go, the loop must not hang the suite: run it in a child under a time limit
    code = ("from spinsolve.ffield import FiniteField\n"
            "try:\n"
            "    FiniteField(4).power_map(-1)\n"
            "except ValueError as err:\n"
            "    print(err)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ffield.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.stdout == "power_map needs an exponent >= 1, got -1\n"


@pytest.mark.parametrize("q2", [4, 9, 16])
def test_conjugation_is_involutive_automorphism(q2):
    f = FiniteField(q2)
    conj = f.conjugation()
    for a in range(q2):
        assert conj[conj[a]] == a
    for a, b in itertools.product(range(q2), repeat=2):
        assert conj[f.add[a, b]] == f.add[conj[a], conj[b]]
        assert conj[f.mul[a, b]] == f.mul[conj[a], conj[b]]
    root = round(q2**0.5)
    assert len(f.fixed_elements(conj)) == root


def test_conjugation_requires_square_order():
    with pytest.raises(ValueError):
        FiniteField(8).conjugation()


def test_prime_power_detection():
    assert is_prime_power(2) and is_prime_power(16) and is_prime_power(27)
    assert not is_prime_power(6) and not is_prime_power(1) and not is_prime_power(12)
    assert prime_power_decomposition(9) == (3, 2)


def test_unknown_extension_rejected():
    # no irreducible on file for 5^2, 3^3 or 3^4: no family spec admits them
    for q in (25, 27, 81):
        with pytest.raises(ValueError, match="no irreducible polynomial on file"):
            FiniteField(q)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_tables_are_arithmetic_mod_p(p):
    f = FiniteField(p)
    elems = np.arange(p)
    assert np.array_equal(f.add, np.add.outer(elems, elems) % p)
    assert np.array_equal(f.mul, np.multiply.outer(elems, elems) % p)
