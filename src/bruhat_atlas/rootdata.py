"""Classical Dynkin diagrams, Cartan matrices, positive roots, diagram symmetries.

Convention used throughout: the Cartan matrix entry ``a[i][j]`` is the pairing
of the j-th simple root against the i-th simple coroot.  Nodes are numbered
0..n-1 globally, consecutive within each factor, Bourbaki order inside a
factor; for a type-C factor the last node carries the long root.  A diagram
symmetry is held as its node permutation and nothing else; a power is formed
by composing it.
"""

from __future__ import annotations

from .errors import BoundError, InputError

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def _positive_root_count(letter: str, rank: int) -> int:
    if letter == "A":
        return rank * (rank + 1) // 2
    if letter in ("B", "C"):
        return rank * rank
    return rank * (rank - 1)  # D


class Record:
    """A record whose fields are its ``__slots__``.

    The constructor sets every field once, by position in slot order or by
    name; a missing field, an extra value or an unknown name is a TypeError.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        slots = self.__slots__
        if len(values) > len(slots):
            raise TypeError(
                f"{type(self).__name__} has {len(slots)} fields, got {len(values)} values"
            )
        for field, value in zip(slots, values):
            object.__setattr__(self, field, value)
        for field in slots[len(values):]:
            if field not in named:
                raise TypeError(f"{type(self).__name__} is missing field {field!r}")
            object.__setattr__(self, field, named.pop(field))
        if named:
            raise TypeError(f"{type(self).__name__} got unexpected fields {sorted(named)}")


class Value(Record):
    """An immutable record: equal and hashed by its slots, in slot order; any
    assignment after the constructor is refused."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle go through __init__ and its checks
        return type(self), self._fields()


class DynkinSpec(Value):
    """An ordered product of classical factors, e.g. C2 or A1 x A1."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, int], ...]):
        super().__init__(factors)
        if not factors:
            raise InputError("at least one factor required")
        for pos, (letter, rank) in enumerate(factors):
            if letter not in _MIN_RANK:
                raise InputError(
                    f"factor {pos}: type {letter!r} not supported; only A, B, C, D"
                )
            if type(rank) is not int or rank < _MIN_RANK[letter]:
                raise InputError(
                    f"factor {pos}: type {letter} needs rank >= {_MIN_RANK[letter]}, "
                    f"got {rank!r}"
                )

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.factors)

    @property
    def factor_ranges(self) -> tuple[range, ...]:
        out, start = [], 0
        for _, r in self.factors:
            out.append(range(start, start + r))
            start += r
        return tuple(out)

    @property
    def positive_root_count(self) -> int:
        return sum(_positive_root_count(t, r) for t, r in self.factors)

    def describe(self) -> str:
        return " x ".join(f"{t}{r}" for t, r in self.factors)


class CartanMatrix(Value):
    """Integer Cartan matrix, block-diagonal across the factors of ``spec``."""

    __slots__ = ("spec", "entries")

    @property
    def n(self) -> int:
        return len(self.entries)


class DiagramAutomorphism(Value):
    """A node permutation preserving the Cartan matrix: node i goes to
    ``perm[i]``.  The permutation is all it holds."""

    __slots__ = ("perm",)

    def apply_subset(self, subset: frozenset[int]) -> frozenset[int]:
        return frozenset(self.perm[i] for i in subset)

    def power(self, k: int) -> "DiagramAutomorphism":
        """phi^k, the k-fold composite, for k >= 0."""
        p = tuple(range(len(self.perm)))
        for _ in range(k):
            p = tuple(self.perm[i] for i in p)
        return DiagramAutomorphism(p)

    @property
    def is_identity(self) -> bool:
        return all(self.perm[i] == i for i in range(len(self.perm)))


class CocharSpec(Value):
    """A cocharacter given through its pairings with the simple roots."""

    __slots__ = ("pairings",)

    def __init__(self, pairings: tuple[int, ...]):
        super().__init__(pairings)
        if any(m < 0 for m in pairings):
            raise InputError(f"pairings must be >= 0 (dominance), got {pairings}")


def cartan_from_spec(spec: DynkinSpec) -> CartanMatrix:
    """Build the standard block-diagonal Cartan matrix for ``spec``."""
    n = spec.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for (letter, rank), rng in zip(spec.factors, spec.factor_ranges):
        lo = rng.start
        edges = []
        if letter == "D":
            edges = [(lo + i, lo + i + 1) for i in range(rank - 2)]
            edges.append((lo + rank - 3, lo + rank - 1))
        else:
            edges = [(lo + i, lo + i + 1) for i in range(rank - 1)]
        for i, j in edges:
            a[i][j] = a[j][i] = -1
        # last edge of B/C is the double bond; the long root sits on the
        # last node for C, the short root there for B
        if letter == "C":
            a[lo + rank - 2][lo + rank - 1] = -2
        elif letter == "B":
            a[lo + rank - 1][lo + rank - 2] = -2
    return CartanMatrix(spec, tuple(tuple(row) for row in a))


def reflect(cartan: CartanMatrix, i: int, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the i-th simple reflection to a root coordinate vector."""
    row = cartan.entries[i]
    c = sum(row[k] * vec[k] for k in range(cartan.n) if vec[k])
    if not c:
        return vec
    out = list(vec)
    out[i] -= c
    return tuple(out)


def positive_roots(cartan: CartanMatrix) -> tuple[tuple[int, ...], ...]:
    """The positive roots in simple-root coordinates, by reflection closure
    from the simples, sorted by height and then coordinates."""
    n = cartan.n
    expected = cartan.spec.positive_root_count
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    found = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(n):
                img = reflect(cartan, i, root)
                if img not in found and all(c >= 0 for c in img):
                    found.add(img)
                    nxt.append(img)
        if len(found) > expected:
            raise BoundError(
                f"root closure exceeded the classical bound {expected}; "
                "matrix is not of the declared finite type"
            )
        frontier = nxt
    if len(found) != expected:
        raise BoundError(
            f"root closure produced {len(found)} roots, expected {expected}"
        )
    return tuple(sorted(found, key=lambda r: (sum(r), r)))


def validate_automorphism(perm, cartan: CartanMatrix) -> DiagramAutomorphism:
    """``perm`` as an automorphism, once checked to preserve the Cartan matrix."""
    n = cartan.n
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise InputError(f"permutation {perm} is not a bijection on 0..{n - 1}")
    a = cartan.entries
    for i in range(n):
        for j in range(n):
            if a[perm[i]][perm[j]] != a[i][j]:
                raise InputError(
                    f"permutation does not preserve the Cartan matrix at "
                    f"({i},{j}): a[{perm[i]}][{perm[j]}]={a[perm[i]][perm[j]]} "
                    f"!= a[{i}][{j}]={a[i][j]}"
                )
    return DiagramAutomorphism(perm)


def identity_automorphism(cartan: CartanMatrix) -> DiagramAutomorphism:
    return DiagramAutomorphism(tuple(range(cartan.n)))


def pairing(mu: CocharSpec, root: tuple[int, ...]) -> int:
    """Pair a cocharacter with a root written in simple-root coordinates."""
    if len(mu.pairings) != len(root):
        raise InputError(
            f"pairing vector has length {len(mu.pairings)}, root has {len(root)}"
        )
    return sum(c * m for c, m in zip(root, mu.pairings))
