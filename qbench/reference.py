"""Reference answers written from theory, independent of the code under test.

Nothing here imports `fusionrings`: every expected value is derived by hand
from the mathematics (group theory, Clebsch-Gordan rules, the BFS window of
a generated ring), so a wrong answer from the library cannot leak into its
own reference.
"""

from __future__ import annotations

from itertools import permutations, product
from math import comb, gcd


def euler_phi(n: int) -> int:
    """|Aut(Z/n)|: the units modulo n."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def num_divisors(n: int) -> int:
    """Number of subgroups of Z/n (one per divisor); all are normal."""
    return sum(1 for k in range(1, n + 1) if n % k == 0)


# ------------------------------------------------------------ finite groups
# Cayley tables as (mult rows, identity index); used as naming candidates.


def cyclic_cayley(n: int):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n)), 0


def elementary_abelian_cayley(k: int):
    """(Z/2)^k as bit vectors under xor."""
    n = 2 ** k
    return tuple(tuple(i ^ j for j in range(n)) for i in range(n)), 0


def s3_cayley():
    """S3 as the permutations of three points under composition."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mult = tuple(tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms)
                 for p in perms)
    return mult, index[(0, 1, 2)]


# ------------------------------------------------ generated-ring windows
# The basis reached by breadth-first exploration to depth d.


def su2_window(d: int) -> list[str]:
    return [f"V{k}" for k in range(d + 1)]


def so3_window(d: int) -> list[str]:
    return [f"W{k}" for k in range(d + 1)]


def z_window(d: int) -> list[str]:
    return [f"z{k}" for k in range(-d, d + 1)]


def au_window(d: int) -> list[str]:
    """Every word over {u, v} of length <= d (the word ring has no
    cancellation inside a basis word); the empty word is "e"."""
    out = ["e"]
    for length in range(1, d + 1):
        out += ["".join(w) for w in product("uv", repeat=length)]
    return out


# Universal gradings: the chain class of a basis element.  Elements of one
# grade form one chain class; the unit's grade is the center subobject.


def su2_grade(label: str) -> int:
    """SU(2): V_n lies in the class of n mod 2 (the center Z/2 acts by (-1)^n)."""
    return int(label[1:]) % 2


def au_grade(label: str) -> int:
    """Free unitary word ring: the letter balance #u - #v (grading group Z)."""
    return 0 if label == "e" else label.count("u") - label.count("v")


def partition_by(labels, grade) -> list[list[str]]:
    blocks: dict = {}
    for label in labels:
        blocks.setdefault(grade(label), []).append(label)
    return sorted(sorted(b) for b in blocks.values())


def singletons(labels) -> list[list[str]]:
    return sorted([label] for label in labels)


# -------------------------------------------------------- iterated fusion


def su2_tensor_power(n: int) -> dict[str, int]:
    """V1^(x n) = sum_j (C(n,j) - C(n,j-1)) V_{n-2j} (ballot numbers)."""
    out = {}
    for j in range(n // 2 + 1):
        m = comb(n, j) - (comb(n, j - 1) if j else 0)
        if m:
            out[f"V{n - 2 * j}"] = m
    return out


def so3_tensor_power(n: int) -> dict[str, int]:
    """W1^(x n) by the spin-1 Clebsch-Gordan rule
    W1 x W_j = W_{j-1} + W_j + W_{j+1} (j >= 1), W1 x W0 = W1."""
    acc = {1: 1}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for j, m in acc.items():
            for k in ((j - 1, j, j + 1) if j else (1,)):
                nxt[k] = nxt.get(k, 0) + m
        acc = nxt
    return {f"W{j}": m for j, m in acc.items()}
