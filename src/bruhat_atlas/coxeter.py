"""Finite Weyl groups acting on the root lattice.

Elements are stored by their action on the simple roots: the canonical key of
``w`` is the tuple of coordinate vectors ``w(alpha_0), ..., w(alpha_{n-1})``.
All elements are interned per group, so equality is identity on keys and
length/descent data is computed once per distinct element.  The element bound
of a group limits how many elements it materializes.

Every enumeration comes from one routine, :meth:`WeylGroup.ascend`, which
grows the minimal representatives ^J(W_S) of a parabolic subgroup W_S from the
identity by ascents.  It yields ^J W for the atlas, ^{J_x}W_K for its fibers,
and W_S or all of W (``J`` empty) for the brute-force oracle, which alone
enumerates the whole group.
"""

from __future__ import annotations

from .errors import BoundError, ConsistencyError, InputError
from .rootdata import CartanMatrix, DiagramAutomorphism, positive_roots
from .rootdata import _positive_root_count, _weyl_order

Key = tuple[tuple[int, ...], ...]

DEFAULT_BOUND = 10**6


class WeylElement:
    """One group element; create these through a :class:`WeylGroup` only."""

    __slots__ = ("group", "key", "uid", "_length", "_left_descents", "_right_descents")

    def __init__(self, group: "WeylGroup", key: Key, uid: int):
        self.group = group
        self.key = key
        self.uid = uid
        self._length = None
        self._left_descents = None
        self._right_descents = None

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.multiply(self, other)

    def __repr__(self):
        return f"WeylElement({self.group.reduced_word(self)!r})"

    @property
    def length(self) -> int:
        if self._length is None:
            self._scan_roots()
        return self._length

    @property
    def left_descents(self) -> frozenset[int]:
        """{i : length(s_i * w) < length(w)}."""
        if self._left_descents is None:
            self._scan_roots()
        return self._left_descents

    @property
    def right_descents(self) -> frozenset[int]:
        """{i : w sends alpha_i negative}."""
        if self._right_descents is None:
            self._right_descents = frozenset(
                i for i, img in enumerate(self.key) if _is_negative(img)
            )
        return self._right_descents

    def _scan_roots(self):
        # one sweep over the positive roots: inversions give the length, and
        # a root mapped to -alpha_i certifies i as a left descent
        group = self.group
        inversions = 0
        lefts = []
        for root in group.pos_roots:
            img = self._act(root)
            if _is_negative(img):
                inversions += 1
                i = _negated_simple(img)
                if i is not None:
                    lefts.append(i)
        self._length = inversions
        self._left_descents = frozenset(lefts)

    def _act(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        n = self.group.n
        out = [0] * n
        for k, c in enumerate(vec):
            if c:
                img = self.key[k]
                for t in range(n):
                    out[t] += c * img[t]
        return tuple(out)


def _is_negative(vec) -> bool:
    # a root vector is entirely >= 0 or entirely <= 0
    for c in vec:
        if c:
            return c < 0
    return False


def _negated_simple(vec):
    """Index i when vec == -alpha_i, else None."""
    idx = None
    for i, c in enumerate(vec):
        if c == -1 and idx is None:
            idx = i
        elif c:
            return None
    return idx


class WeylGroup:
    """The Weyl group of a Cartan matrix, with cached combinatorial data."""

    def __init__(self, cartan: CartanMatrix, element_bound: int = DEFAULT_BOUND):
        self.cartan = cartan
        self.n = cartan.n
        self.element_bound = element_bound
        self.pos_roots = positive_roots(cartan).roots
        self.order = cartan.spec.weyl_order
        self._registry: dict[Key, WeylElement] = {}
        self._left_mul: dict[tuple[int, int], WeylElement] = {}
        self._right_mul: dict[tuple[int, int], WeylElement] = {}
        self._bruhat_memo: dict[tuple[int, int], bool] = {}
        self._ascend_cache: dict[tuple[frozenset[int], frozenset[int]], list] = {}
        self._longest_cache: dict[frozenset[int], WeylElement] = {}
        self.identity = self._intern(
            tuple(tuple(1 if k == i else 0 for k in range(self.n)) for i in range(self.n))
        )
        self.simple = tuple(self._simple_key(i) for i in range(self.n))

    # -- element construction ------------------------------------------------

    def _intern(self, key: Key) -> WeylElement:
        el = self._registry.get(key)
        if el is None:
            count = len(self._registry)
            if count >= self.element_bound:
                raise BoundError(
                    f"element bound {self.element_bound} exceeded: "
                    f"{count + 1} elements materialized"
                )
            el = WeylElement(self, key, count)
            self._registry[key] = el
        return el

    def _simple_key(self, i: int) -> WeylElement:
        a = self.cartan.entries
        key = []
        for j in range(self.n):
            vec = [1 if k == j else 0 for k in range(self.n)]
            vec[i] -= a[i][j]
            key.append(tuple(vec))
        return self._intern(tuple(key))

    def check_ambient(self, *elements: WeylElement):
        for w in elements:
            if w.group.cartan.entries != self.cartan.entries:
                raise InputError("element belongs to a different ambient group")

    # -- group law -----------------------------------------------------------

    def multiply(self, w: WeylElement, v: WeylElement) -> WeylElement:
        """(w v)(alpha_j) = w(v(alpha_j))."""
        self.check_ambient(w, v)
        return self._intern(tuple(w._act(col) for col in v.key))

    def left_mul(self, i: int, w: WeylElement) -> WeylElement:
        """s_i * w, cached per (generator, element)."""
        cached = self._left_mul.get((i, w.uid))
        if cached is None:
            a = self.cartan.entries[i]
            n = self.n
            key = []
            for col in w.key:
                c = sum(a[k] * col[k] for k in range(n) if col[k])
                if c:
                    out = list(col)
                    out[i] -= c
                    key.append(tuple(out))
                else:
                    key.append(col)
            cached = self._intern(tuple(key))
            self._left_mul[(i, w.uid)] = cached
        return cached

    def right_mul(self, w: WeylElement, i: int) -> WeylElement:
        """w * s_i, cached per (element, generator)."""
        cached = self._right_mul.get((w.uid, i))
        if cached is None:
            cached = self.multiply(w, self.simple[i])
            self._right_mul[(w.uid, i)] = cached
        return cached

    def inverse(self, w: WeylElement) -> WeylElement:
        out = self.identity
        for i in reversed(self.reduced_word(w)):
            out = self.right_mul(out, i)
        return out

    # -- words and descents --------------------------------------------------

    def reduced_word(self, w: WeylElement) -> list[int]:
        """Deterministic reduced word: peel the smallest left descent."""
        word = []
        while w.left_descents:
            i = min(w.left_descents)
            word.append(i)
            w = self.left_mul(i, w)
        return word

    def from_word(self, word) -> WeylElement:
        out = self.identity
        for i in word:
            if not 0 <= i < self.n:
                raise InputError(f"letter {i} outside 0..{self.n - 1}")
            out = self.right_mul(out, i)
        return out

    # -- parabolic helpers ---------------------------------------------------

    def check_subset(self, J) -> frozenset[int]:
        J = frozenset(J)
        bad = [i for i in J if not (isinstance(i, int) and 0 <= i < self.n)]
        if bad:
            raise InputError(f"invalid node ids {sorted(bad)} for rank {self.n}")
        return J

    def longest_element(self, J) -> WeylElement:
        """The maximal-length element of the parabolic subgroup W_J."""
        J = self.check_subset(J)
        cached = self._longest_cache.get(J)
        if cached is None:
            w = self.identity
            ascent = True
            while ascent:
                ascent = False
                for j in sorted(J):
                    if j not in w.right_descents:
                        w = self.right_mul(w, j)
                        ascent = True
                        break
            self._longest_cache[J] = cached = w
        return cached

    def opposition(self, J) -> frozenset[int]:
        """Image of J under conjugation with the longest element."""
        J = self.check_subset(J)
        w0 = self.longest_element(range(self.n))
        out = set()
        for i in J:
            img = tuple(-c for c in w0.key[i])
            j = _unit_index(img)
            if j is None:  # pragma: no cover
                raise ConsistencyError("w0 did not negate a simple root")
            out.add(j)
        return frozenset(out)

    # -- Bruhat order ----------------------------------------------------------

    def bruhat_leq(self, x: WeylElement, w: WeylElement) -> bool:
        """Lifting-property recursion, memoized on element ids."""
        self.check_ambient(x, w)
        if x is w or x.key == w.key:
            return True
        if x.length >= w.length:
            return False
        memo = self._bruhat_memo
        cached = memo.get((x.uid, w.uid))
        if cached is not None:
            return cached
        s = min(w.left_descents)
        sw = self.left_mul(s, w)
        sx = self.left_mul(s, x)
        if sx.length < x.length:
            res = self.bruhat_leq(sx, sw)
        else:
            res = self.bruhat_leq(x, sw)
        memo[(x.uid, w.uid)] = res
        return res

    # -- automorphisms ---------------------------------------------------------

    def apply_automorphism(self, phi: DiagramAutomorphism, w: WeylElement) -> WeylElement:
        """Relabel w through the diagram symmetry; preserves length."""
        p = phi.perm
        if len(p) != self.n:
            raise InputError("automorphism rank mismatch")
        key = [None] * self.n
        for j in range(self.n):
            col = w.key[j]
            out = [0] * self.n
            for k, c in enumerate(col):
                if c:
                    out[p[k]] = c
            key[p[j]] = tuple(out)
        return self._intern(tuple(key))

    # -- enumeration -----------------------------------------------------------

    def parabolic_order(self, S) -> int:
        """|W_S| by the closed forms, one factor per connected component of S.

        A component's type is read off its rank and the number of positive
        roots supported on it; that pair tells A_k, B_k/C_k and D_k apart,
        and D_3 = A_3 has the same order either way.
        """
        S = self.check_subset(S)
        supports = [frozenset(k for k, c in enumerate(r) if c) for r in self.pos_roots]
        # a component's first root by decreasing support is its highest root,
        # whose support is the whole component
        counts: dict[frozenset[int], int] = {}
        for supp in sorted(supports, key=len, reverse=True):
            if supp <= S:
                comp = next((c for c in counts if supp <= c), supp)
                counts[comp] = counts.get(comp, 0) + 1
        order = 1
        for comp, roots in counts.items():
            rank = len(comp)
            types = [t for t in "ABD" if _positive_root_count(t, rank) == roots]
            if not types:  # pragma: no cover
                raise ConsistencyError(f"component {sorted(comp)} is not classical")
            order *= _weyl_order(types[0], rank)
        return order

    def ascend(self, gens, J) -> list[WeylElement]:
        """The elements of W_gens with no left descent in J (J inside gens),
        breadth-first by length and sorted by key within a length.

        ^J W is closed under prefixes, and for w in ^J W and an ascent s_i of
        w the product w s_i leaves ^J W exactly when w(alpha_i) = alpha_j for
        some j in J (Deodhar's lemma).  So each level is grown from the one
        before, and a rejected candidate is never multiplied or interned.
        The count is checked against |W_gens| / |W_J|.
        """
        gens = self.check_subset(gens)
        J = self.check_subset(J)
        if not J <= gens:
            raise InputError(f"subset {sorted(J)} is not contained in {sorted(gens)}")
        cached = self._ascend_cache.get((gens, J))
        if cached is None:
            blocked = {self.identity.key[j] for j in J}  # the simple roots alpha_j
            level = [self.identity]
            cached = [self.identity]
            while level:
                nxt = set()
                for w in level:
                    for i in gens:
                        if i not in w.right_descents and w.key[i] not in blocked:
                            nxt.add(self.right_mul(w, i))
                level = sorted(nxt, key=lambda u: u.key)
                cached.extend(level)
            if len(cached) * self.parabolic_order(J) != self.parabolic_order(gens):
                raise ConsistencyError(
                    f"ascent over {sorted(gens)} found {len(cached)} elements with "
                    f"no left descent in {sorted(J)}; the closed form disagrees"
                )
            self._ascend_cache[(gens, J)] = cached
        return cached

    def elements(self) -> list[WeylElement]:
        """All elements, breadth-first by length, deterministic within a level;
        refused up front when the closed-form order exceeds the bound."""
        if self.order > self.element_bound:
            raise BoundError(
                f"group order {self.order} exceeds element bound {self.element_bound}"
            )
        return self.ascend(range(self.n), ())

    def subgroup_elements(self, J) -> list[WeylElement]:
        """All of W_J, breadth-first by length."""
        return self.ascend(J, ())


def _unit_index(vec):
    idx = None
    for i, c in enumerate(vec):
        if c == 1 and idx is None:
            idx = i
        elif c:
            return None
    return idx
