"""Algebra descriptions with known answers, built without the program.

Every family here has a classification that follows from its shape alone,
so the benchmark can check the program's answers without asking the
program:

* lower/upper triangular n x n matrices: n left (and right) classes;
* full matrix algebras, GF(p) and GF(p)[x]/(x^k): one class;
* a direct product: prod(c_i + 1) - 1 classes, where c_i is each factor's
  count, and 2^k - 1 two-sided classes for k connected factors;
* the opposite of a triangular algebra: the same count;
* block upper triangular matrices (a matrix subalgebra): one class per
  diagonal block.

Elements are built from ambient matrices through the constructors'
documented bases (matrix units E_ij in lex order, powers of x, products
concatenate their factors' coordinates).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


def _primitive_root(rng: random.Random, p: int) -> int:
    """A seeded generator of GF(p)^*."""
    phi = p - 1
    primes = {q for q in range(2, phi + 1) if phi % q == 0 and all(q % r for r in range(2, q))}
    roots = [g for g in range(2, p) if all(pow(g, phi // q, p) != 1 for q in primes)]
    return rng.choice(roots)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _mat_mul(x, y, p):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def _mat_inv(m, p):
    """Gauss-Jordan inverse mod p; None when singular."""
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class Factor:
    """One indecomposable algebra: kind 'L', 'U', 'M' (n x n; 'M' with n = 1
    is GF(p)) or 'T' (GF(p)[x]/(x^n))."""

    kind: str
    n: int

    def doc(self) -> dict:
        if self.kind == "T":
            return {"kind": "constructor", "name": "truncated_poly", "k": self.n}
        name = {"L": "lower_triangular", "U": "upper_triangular", "M": "full_matrix"}[self.kind]
        return {"kind": "constructor", "name": name, "n": self.n}

    @property
    def pairs(self) -> list[tuple[int, int]]:
        rng = range(self.n)
        keep = {"L": lambda i, j: i >= j, "U": lambda i, j: i <= j, "M": lambda i, j: True}[self.kind]
        return [(i, j) for i in rng for j in rng if keep(i, j)]

    @property
    def classes(self) -> int:
        return self.n if self.kind in "LU" else 1

    def coeffs(self, mat) -> list[int]:
        return [mat[i][j] for i, j in self.pairs]

    @property
    def patterns(self) -> list[tuple[int, ...]]:
        """Every 0/1 pattern over the diagonal positions (one position for 'T')."""
        return list(itertools.product((0, 1), repeat=1 if self.kind == "T" else self.n))

    def random_unit(self, rng: random.Random, p: int):
        while True:
            m = [[0] * self.n for _ in range(self.n)]
            for i, j in self.pairs:
                m[i][j] = rng.randrange(p)
            if _mat_inv(m, p) is not None:
                return m

    def element(self, rng: random.Random, p: int, pattern: tuple[int, ...]) -> list[int]:
        """A seeded element whose multiplicative structure is fixed by the
        pattern: the diagonal holds one primitive root g where the pattern
        is 1 and 0 elsewhere, and every off-diagonal entry of the algebra is
        a random nonzero value ('M': one Jordan entry between equal diagonal
        values, then conjugation by a random unit).  So all-ones gives a
        unit of order p(p - 1) (p - 1 for GF(p)), and the cost of deciding
        about the element depends on the pattern, not the seed."""
        g = _primitive_root(rng, p)
        if self.kind == "T":
            return [g if pattern[0] else 0] + [rng.randrange(1, p) for _ in range(self.n - 1)]
        m = [[g if i == j and pattern[i] else 0 for j in range(self.n)] for i in range(self.n)]
        if self.kind in "LU":
            for i, j in self.pairs:
                if i != j:
                    m[i][j] = rng.randrange(1, p)
        elif self.n > 1:
            if pattern[0] == pattern[1]:
                m[0][1] = rng.randrange(1, p)
            u = self.random_unit(rng, p)
            m = _mat_mul(_mat_mul(u, m, p), _mat_inv(u, p), p)
        return self.coeffs(m)

    def idempotent(self, rng: random.Random, p: int, pattern: tuple[int, ...],
                   scale: int = 1) -> list[int]:
        """u * diag(scale * pattern) * u^-1 for a random unit u of the algebra:
        an idempotent, or with scale -1 an element x with x^3 = x."""
        if self.kind == "T":
            return [scale * pattern[0] % p] + [0] * (self.n - 1)
        u = self.random_unit(rng, p)
        d = [[scale * pattern[i] % p if i == j else 0 for j in range(self.n)] for i in range(self.n)]
        return self.coeffs(_mat_mul(_mat_mul(u, d, p), _mat_inv(u, p), p))


@dataclass(frozen=True)
class Algebra:
    """A description the CLI reads, with the answers the benchmark expects.

    ``factors`` is set for direct products (and single factors), so that
    elements can be generated; ``classes`` and ``two_sided`` are the
    expected left class count and two-sided class count.
    """

    name: str
    p: int
    body: dict
    classes: int
    two_sided: int
    factors: tuple[Factor, ...] = ()

    def doc(self) -> dict:
        return {"scalar": {"prime": self.p}, **self.body}

    @property
    def patterns(self) -> list[tuple[tuple[int, ...], ...]]:
        """Per-factor patterns (see ``Factor.element``), all-zero excluded."""
        combos = itertools.product(*(f.patterns for f in self.factors))
        return [c for c in combos if any(any(part) for part in c)]

    def element(self, rng: random.Random, pattern) -> list[int]:
        return [c for f, part in zip(self.factors, pattern) for c in f.element(rng, self.p, part)]

    def idempotent(self, rng: random.Random, pattern, scale: int = 1) -> list[int]:
        return [c for f, part in zip(self.factors, pattern)
                for c in f.idempotent(rng, self.p, part, scale)]


def _label(f: Factor, p: int) -> str:
    if f.kind == "M" and f.n == 1:
        return f"GF({p})"
    name = {"L": "lower_triangular", "U": "upper_triangular", "M": "full_matrix",
            "T": "truncated_poly"}[f.kind]
    return f"{name}({p},{f.n})"


def single(kind: str, n: int, p: int) -> Algebra:
    f = Factor(kind, n)
    return Algebra(_label(f, p), p, f.doc(), f.classes, 1, (f,))


def product(factors: list[Factor], p: int) -> Algebra:
    classes = 1
    for f in factors:
        classes *= f.classes + 1
    name = "x".join(_label(f, p) for f in factors)
    body = {"kind": "constructor", "name": "product", "factors": [f.doc() for f in factors]}
    return Algebra(name, p, body, classes - 1, (1 << len(factors)) - 1, tuple(factors))


def opposite(kind: str, n: int, p: int) -> Algebra:
    f = Factor(kind, n)
    body = {"kind": "constructor", "name": "opposite", "inner": f.doc()}
    return Algebra(f"opposite({_label(f, p)})", p, body, f.classes, 1)


def block_triangular(blocks: list[int], p: int, rng: random.Random) -> Algebra:
    """Block upper triangular matrices, given as the matrix subalgebra generated
    by a diagonal matrix with one distinct eigenvalue per block, the matrix
    units inside each block and the superdiagonal shift."""
    n = sum(blocks)
    owner = [b for b, size in enumerate(blocks) for _ in range(size)]
    values = rng.sample(range(1, p), len(blocks))

    def unit(i, j, v=1):
        return [[v if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)]

    diag = [[values[owner[i]] if i == j else 0 for j in range(n)] for i in range(n)]
    gens = [diag]
    gens += [unit(i, j) for i in range(n) for j in range(n) if i != j and owner[i] == owner[j]]
    gens.append([[rng.randrange(1, p) if c == r + 1 else 0 for c in range(n)] for r in range(n)])
    body = {"kind": "constructor", "name": "matrix_subalgebra", "ambient_n": n, "generators": gens}
    name = f"block_triangular({p},{'+'.join(map(str, blocks))})"
    return Algebra(name, p, body, len(blocks), 1)
