"""Expected answers taken from the classification, never from spinsolve.

Solution counts follow the paper's statements: Hamming schemes have 6
solutions (3 when q = 4), n-gons 12 for even n and 6 for odd n, bilinear
forms with min(M, N) > 2 none, and every input at most 12 with the
accepted ratios x closed under x -> 1/x.  Intersection arrays for the
census follow the closed forms of the README (Hamming, bilinear, n-gon)
and, for alternating and Hermitian forms, their classical parameters
(Brouwer-Cohen-Neumaier, Distance-Regular Graphs, chapter 6 and 9.5).

The square (hamming(2,2), ngon(4), or its array scaled by any k) leaves
x unconstrained, so the solver is expected to refuse it.

KNOWN_DEFECTS names the operations this benchmark has seen return a
wrong answer.  They are scored as failed operations like any other; the
list only separates them from new wrong answers in the `correct` flag.
The bilinear entries accept a tiny x but reject its reciprocal.
"""

from __future__ import annotations

from fractions import Fraction

MAX_SOLUTIONS = 12
RECIPROCAL_TOL = 1e-6

KNOWN_DEFECTS = frozenset(
    ["hamming(22,4)", "hamming(30,5)"]
    + [f"hamming({n},5)" for n in range(10, 23)]
    + [f"hamming({n},7)" for n in range(7, 23)]
    + ["bilinear(2,4,7)", "bilinear(2,5,4)", "bilinear(2,5,5)", "bilinear(2,5,7)"]
    + ["array-file:infinity", "array-file:missing-b", "array-file:string-entry",
       "array-file:top-level-list"]
)


def instance_key(family: str, params: dict) -> str:
    order = {"hamming": ("N", "q"), "bilinear": ("M", "N", "q"),
             "ngon": ("n",), "alternating": ("n", "q"), "hermitian": ("n", "q")}
    return f"{family}({','.join(str(params[k]) for k in order[family])})"


def is_square(family: str, params: dict) -> bool:
    return (family == "hamming" and params == {"N": 2, "q": 2}) or \
        (family == "ngon" and params == {"n": 4})


def is_square_array(b: list, c: list) -> bool:
    """The square's array {2k, k; k, 2k}, at any scale k."""
    return len(b) == 2 and b[0] == 2 * b[1] == c[1] == 2 * c[0]


def expected_count(family: str, params: dict) -> int | None:
    """Exact solution count the classification asserts, or None where it
    only asserts the general bound."""
    if family == "hamming":
        return 3 if params["q"] == 4 else 6
    if family == "ngon":
        return 12 if params["n"] % 2 == 0 else 6
    if family == "bilinear" and min(params["M"], params["N"]) > 2:
        return 0
    return None


def check_solution_set(family: str, params: dict, count: int, xs: list[complex]) -> str | None:
    """None when a solve result agrees with the classification, else why not."""
    expected = expected_count(family, params)
    if expected is not None and count != expected:
        return f"count {count} != {expected}"
    return check_bound(count, xs)


def check_bound(count: int, xs: list[complex]) -> str | None:
    if count > MAX_SOLUTIONS:
        return f"count {count} > {MAX_SOLUTIONS}"
    for x in xs:
        inv = 1 / x
        if not any(abs(inv - y) <= RECIPROCAL_TOL * max(1.0, abs(inv)) for y in xs):
            return f"accepted x = {x} without its reciprocal"
    return None


def _classical(d: int, base: int, alpha: int, beta: int) -> tuple[list[int], list[int]]:
    """b_i = ([d] - [i])(beta - alpha [i]), c_i = [i](1 + alpha [i-1]) with
    [i] = (base^i - 1)/(base - 1)."""
    def gauss(i: int) -> Fraction:
        return Fraction(base**i - 1, base - 1)

    b = [(gauss(d) - gauss(i)) * (beta - alpha * gauss(i)) for i in range(d)]
    c = [gauss(i) * (1 + alpha * gauss(i - 1)) for i in range(1, d + 1)]
    return [int(x) for x in b], [int(x) for x in c]


def expected_array(family: str, params: dict) -> tuple[list[int], list[int]]:
    """Closed-form (b_0..b_{d-1}, c_1..c_d) of a named family."""
    if family == "hamming":
        n, q = params["N"], params["q"]
        return [(n - i) * (q - 1) for i in range(n)], list(range(1, n + 1))
    if family == "bilinear":
        m, n, q = params["M"], params["N"], params["q"]
        d = min(m, n)
        b = [(q**m - q**i) * (q**n - q**i) // (q - 1) for i in range(d)]
        c = [q ** (i - 1) * (q**i - 1) // (q - 1) for i in range(1, d + 1)]
        return b, c
    if family == "ngon":
        n = params["n"]
        d = n // 2
        return [2] + [1] * (d - 1), [1] * (d - 1) + [2 if n % 2 == 0 else 1]
    if family == "alternating":
        n, q = params["n"], params["q"]
        m = n if n % 2 else n - 1
        return _classical(n // 2, q * q, q * q - 1, q**m - 1)
    if family == "hermitian":
        n, q = params["n"], params["q"]
        return _classical(n, -q, -q - 1, -((-q) ** n) - 1)
    raise ValueError(f"no closed form for {family}")


def check_census_array(family: str, params: dict, b, c, a, class_sizes,
                       point_count: int) -> str | None:
    """None when a measured scheme matches the closed form, else why not."""
    eb, ec = expected_array(family, params)
    ea = [eb[0] - (eb[i] if i < len(eb) else 0) - (ec[i - 1] if i else 0)
          for i in range(len(eb) + 1)]
    if (list(b), list(c), list(a)) != (eb, ec, ea):
        return f"array b={list(b)} c={list(c)} a={list(a)} != b={eb} c={ec} a={ea}"
    sizes = [1]
    for bi, ci in zip(eb, ec):
        sizes.append(sizes[-1] * bi // ci)
    if list(class_sizes) != sizes or point_count != sum(sizes):
        return f"class sizes {list(class_sizes)} of {point_count} points != {sizes}"
    return None
