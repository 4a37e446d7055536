"""Finite Weyl groups acting on their roots.

The 2N roots are indexed once per group: the N positive roots first, with the
simple root alpha_i at index i, and -beta at (index of beta) + N.  An element
``w`` is stored as the permutation it induces on them: ``key[r]`` is the index
of ``w(root r)`` (Casselman, "Machine calculations in Weyl groups", 1994).
Length is the number of positive roots sent negative, descents are lookups
and a product composes two permutations.

A key is a ``bytes`` string whenever 2N <= 256 (every group the oracle can
enumerate, C_g up to g = 11, A_n up to n = 15).  A product is then one
``bytes.translate`` of the inner key through the outer key padded to 256
bytes, and bytes cache their hash.  Wider groups keep a tuple key composed
by one ``itemgetter`` gather; the choice is made once per group, in
``_encode``, ``_table`` and ``_compose``, and nothing else depends on it.

An element is its interned key: elements are interned per group, so equal
means identical.  The element keeps its length, its right steps and, once
peeled, its reduced word; descents are read off the key when asked for.
The group laws are a general product, :meth:`WeylGroup.multiply`, and a
step by a simple reflection on the right, :meth:`WeylGroup.right_mul`,
memoized on the element itself, in its ``steps`` list: forming v = w s_i
records v on w.  A step carries its length, l(w s_i) = l(w) + 1 exactly
when w(alpha_i) is positive (Humphreys, "Reflection Groups and Coxeter
Groups", 1.6-1.7), so only a general product and the generators count
negative images.  Canonical reduced words are peeled on keys, interning
nothing, and kept on the elements already interned.  Validated subsets of
the nodes, their parabolic orders and their ascent stops are memoized per
group, one frozenset per subset.  The element bound of a group limits how
many elements it materializes, and an enumeration whose closed-form count
exceeds it is refused before it grows.

Every enumeration of the engine comes from one routine,
:meth:`WeylGroup.ascend`, which grows the J-minimal elements of a coset x W_S
by ascents from x: ^J W and all of W (``J`` empty) from the identity, and
each fiber x W_K meet ^J W from its representative x, its size known before
it grows from root heights (:meth:`WeylGroup.parabolic_order`).  A symmetry
of the diagram acts on reduced words.  The one Bruhat order is
:func:`galois.lower_sets`, a forward pass over ^J W along the steps that
``ascend`` memoized while growing it, so it composes no key.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import BoundError, ConsistencyError, InputError
from .rootdata import CartanMatrix, DiagramAutomorphism, positive_roots, reflect

Key = bytes | tuple[int, ...]

DEFAULT_BOUND = 10**6


def check_bound(element_bound, rank: int):
    """Refuse an element bound that is not an integer >= 1, then a rank whose
    identity and simple reflections, which every group interns, already
    exceed it; both before anything of size ``rank`` is built."""
    if type(element_bound) is not int or element_bound < 1:
        raise InputError(
            f"options.element_bound must be an integer >= 1, got {element_bound!r}"
        )
    if rank >= element_bound:
        raise BoundError(
            f"rank {rank} is past element bound {element_bound}: a group "
            "interns its identity and one reflection per node"
        )


class WeylElement:
    """One group element; create these through a :class:`WeylGroup` only.

    ``length`` is handed on by the step or product that first forms the
    element, and the descent sets are read off the key whenever they are
    asked for.  ``steps[i]`` is w s_i, or None until formed; a build forms
    only ascents, so a filled slot holds a longer element.  ``word`` is the
    reduced word of :meth:`WeylGroup.reduced_word`, or None until peeled.
    Equality is identity: a group interns one element per key.
    """

    __slots__ = ("group", "key", "length", "steps", "word")

    def __init__(self, group: "WeylGroup", key: Key, length: int):
        self.group = group
        self.key = key
        self.length = length
        self.steps: list[WeylElement | None] = [None] * group.n
        self.word: tuple[int, ...] | None = None

    @property
    def left_descents(self) -> frozenset[int]:
        """{i : length(s_i w) < length(w)}: the simple roots in w(negative roots)."""
        n = self.group.n
        return frozenset(r for r in self.key[self.group.N:] if r < n)

    @property
    def right_descents(self) -> frozenset[int]:
        """{i : w sends alpha_i negative}."""
        N = self.group.N
        return frozenset(i for i, r in enumerate(self.key[: self.group.n]) if r >= N)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.multiply(self, other)

    def __repr__(self):
        return f"WeylElement({self.group.reduced_word(self)!r})"


class WeylGroup:
    """The Weyl group of a Cartan matrix, with cached combinatorial data.

    ``roots`` lists the 2N root vectors in key order (see the module
    docstring); ``N`` is the number of positive roots.
    """

    def __init__(self, cartan: CartanMatrix, element_bound: int = DEFAULT_BOUND):
        self.cartan = cartan
        self.n = n = cartan.n
        self.element_bound = element_bound
        self.pos_roots = positive_roots(cartan)
        supports = (frozenset(k for k, c in enumerate(r) if c) for r in self.pos_roots)
        self._heights = list(zip(supports, map(sum, self.pos_roots)))
        simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        positive = simples + [r for r in self.pos_roots if sum(r) > 1]
        self.roots = tuple(positive + [tuple(-c for c in r) for r in positive])
        self.N = len(positive)
        width = 2 * self.N
        # the one fork of the representation: how keys are built and composed
        if width <= 256:
            pad = bytes(256 - width)
            self._encode = bytes
            self._table = lambda key: key + pad
            self._compose = bytes.translate
        else:
            self._encode = tuple
            self._table = lambda key: key
            self._compose = lambda key, table: itemgetter(*key)(table)
        self._registry: dict[Key, WeylElement] = {}
        self._subsets: dict[frozenset[int], frozenset[int]] = {}
        self._orders: dict[frozenset[int], int] = {}
        self._stops: dict[frozenset[int], frozenset[int]] = {}
        self._ascend_cache: dict[tuple[frozenset[int], frozenset[int]], list] = {}
        self._longest_cache: dict[frozenset[int], WeylElement] = {}
        self.order = self.parabolic_order(range(n))
        index = {root: r for r, root in enumerate(self.roots)}
        keys = [self._encode(range(width))] + [
            self._encode(index[reflect(cartan, i, r)] for r in self.roots) for i in range(n)
        ]
        self.identity, *simple = [self._intern(key, self._length(key)) for key in keys]
        self.simple = tuple(simple)
        self._simple_tables = tuple(self._table(s.key) for s in self.simple)

    # -- element construction ------------------------------------------------

    def _length(self, key: Key) -> int:
        """The number of positive roots that ``key`` sends negative."""
        N = self.N
        return sum(1 for r in key[:N] if r >= N)

    def _intern(self, key: Key, length: int) -> WeylElement:
        """The element of ``key``; ``length`` is its length, known to the
        caller, and used only when the key is new.  A step looks the key up
        in ``_registry`` itself and calls this only for a new one."""
        el = self._registry.get(key)
        if el is None:
            count = len(self._registry)
            if count >= self.element_bound:
                raise BoundError(
                    f"element bound {self.element_bound} exceeded: "
                    f"{count + 1} elements materialized"
                )
            el = WeylElement(self, key, length)
            self._registry[key] = el
        return el

    def check_ambient(self, *elements: WeylElement):
        for w in elements:
            if w.group is not self:
                raise InputError("element belongs to a different ambient group")

    # -- group law -----------------------------------------------------------

    def multiply(self, w: WeylElement, v: WeylElement) -> WeylElement:
        """(w v)(root r) = w(v(root r))."""
        self.check_ambient(w, v)
        key = self._compose(v.key, self._table(w.key))
        return self._intern(key, self._length(key))

    def right_mul(self, w: WeylElement, i: int) -> WeylElement:
        """w * s_i, kept in ``w.steps[i]``.  It is longer than w exactly
        when w(alpha_i) is positive."""
        cached = w.steps[i]
        if cached is None:
            key = self._compose(self.simple[i].key, self._table(w.key))
            cached = self._registry.get(key) or self._intern(
                key, w.length + 1 if w.key[i] < self.N else w.length - 1
            )
            w.steps[i] = cached
        return cached

    # -- words and descents --------------------------------------------------

    def reduced_word(self, w: WeylElement) -> list[int]:
        """Deterministic reduced word, :meth:`_peel` of w's key, kept in
        ``w.word``.  Every call returns a new list."""
        if w.word is None:
            w.word = self._peel(w.key)
        return list(w.word)

    def _peel(self, key: Key) -> tuple[int, ...]:
        """The reduced word of ``key`` that peels its smallest left descent
        first (the left descents are the simple-root indices in ``key[N:]``).
        No element is interned: the peel stops at the first interned key on
        its chain whose element has a word."""
        peeled = []
        while (i := min(key[self.N:])) < self.n:
            peeled.append(i)
            key = self._compose(key, self._simple_tables[i])
            if (v := self._registry.get(key)) is not None and v.word is not None:
                return (*peeled, *v.word)
        return tuple(peeled)

    def from_word(self, word) -> WeylElement:
        out = self.identity
        for i in word:
            if not 0 <= i < self.n:
                raise InputError(f"letter {i} outside 0..{self.n - 1}")
            out = out.steps[i] or self.right_mul(out, i)
        return out

    # -- parabolic helpers ---------------------------------------------------

    def check_subset(self, J) -> frozenset[int]:
        """J as a frozenset of node ids of this group, refused otherwise.

        The group keeps one validated frozenset per subset and returns it, so
        a caller that passes it on is answered at once.  The hit is by
        identity: an equal set need not hold int ids (frozenset({1.0}) ==
        frozenset({1})), so any other object is checked in full."""
        if type(J) is frozenset and self._subsets.get(J) is J:
            return J
        J = frozenset(J)
        bad = [i for i in J if not (isinstance(i, int) and 0 <= i < self.n)]
        if bad:
            raise InputError(f"invalid node ids {sorted(bad)} for rank {self.n}")
        return self._kept(J)

    def _kept(self, S: frozenset[int]) -> frozenset[int]:
        """The group's one copy of S, a subset of its node ids."""
        return self._subsets.setdefault(S, S)

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
                    if w.key[j] < self.N:  # w(alpha_j) positive: an ascent
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
            j = w0.key[i] - self.N  # w0(alpha_i) = -alpha_j
            if not 0 <= j < self.n:
                raise ConsistencyError("w0 did not negate a simple root")
            out.add(j)
        return self._kept(frozenset(out))

    # -- automorphisms ---------------------------------------------------------

    def apply_automorphism(self, phi: DiagramAutomorphism, w: WeylElement) -> WeylElement:
        """phi(s_i1 ... s_ik) = s_phi(i1) ... s_phi(ik) on w's reduced word.  For
        w in ^J W with phi(J) = J every prefix lies in ^J W, so once ^J W is
        grown this follows memoized steps and interns nothing."""
        p = phi.perm
        if len(p) != self.n:
            raise InputError("automorphism rank mismatch")
        return self.from_word(p[i] for i in self.reduced_word(w))

    # -- enumeration -----------------------------------------------------------

    def parabolic_order(self, S) -> int:
        """|W_S| = prod (ht a + 1) / ht a over the positive roots a supported
        in S: Macdonald's formula for the Poincare polynomial at q = 1 ("The
        Poincare series of a Coxeter group", Math. Ann. 199, 1972).  Kept
        by subset."""
        S = self.check_subset(S)
        order = self._orders.get(S)
        if order is None:
            num = den = 1
            for support, height in self._heights:
                if support <= S:
                    num *= height + 1
                    den *= height
            order = self._orders[S] = num // den
        return order

    def induced_subset(self, x: WeylElement, J, K) -> frozenset[int]:
        """{k in K : x s_k x^-1 is a simple reflection from J}, for x in ^J W^K
        (refused otherwise).  Such an x sends each alpha_k (k in K) to a
        positive root, so this is {k in K : x(alpha_k) = alpha_j, j in J}."""
        J = self.check_subset(J)
        K = self.check_subset(K)
        key, N = x.key, self.N
        left = J.intersection(key[N:])  # J meet the left descents
        right = [k for k in K if key[k] >= N]  # K meet the right descents
        if left or right:
            raise InputError(
                f"element {self.reduced_word(x)} is not a minimal double "
                f"representative for J={sorted(J)}, K={sorted(K)}: left descents "
                f"{sorted(left)} in J, right descents {sorted(right)} in K"
            )
        return self._kept(frozenset(k for k in K if x.key[k] in J))

    def ascent_stops(self, J) -> frozenset[int]:
        """The root indices r such that, when w(alpha_i) is root r, w s_i is
        shorter than w or leaves ^J W: the negative roots, and alpha_j for j
        in J (Deodhar's lemma).  So for w in ^J W, w s_i is an ascent inside
        ^J W exactly when ``w.key[i] not in ascent_stops(J)``.  Kept by subset."""
        J = self.check_subset(J)
        stops = self._stops.get(J)
        if stops is None:
            stops = self._stops[J] = frozenset(range(self.N, 2 * self.N)).union(J)
        return stops

    def ascend(self, gens, J, start: WeylElement | None = None) -> list[WeylElement]:
        """The elements of start * W_gens with no left descent in J, grown from
        ``start`` (the identity by default), breadth-first by length, each
        level in the order its elements are first reached: from the level
        before in its order, by the generators in increasing order.

        ^J W is closed under prefixes, so each level is grown from the one
        before by the ascents that :meth:`ascent_stops` lets through, and a
        rejected candidate is never multiplied or interned.  ``start`` must
        lie in ^J W^gens; the result is start * ^{J_s}(W_gens), J_s =
        ``induced_subset(start, J, gens)`` (Bjorner-Brenti, section 2.4), so
        its count is |W_gens| / |W_{J_s}|: refused up front past the element
        bound, and checked once grown.
        """
        gens = self.check_subset(gens)
        J = self.check_subset(J)
        # only start-less calls are kept: a fiber is asked for once, by its caller
        cache = self._ascend_cache if start is None else {}
        start = self.identity if start is None else start
        self.check_ambient(start)
        J_s = self.induced_subset(start, J, gens)
        cached = cache.get((gens, J))
        if cached is None:
            whole, part = self.parabolic_order(gens), self.parabolic_order(J_s)
            if whole > self.element_bound * part:
                raise BoundError(
                    f"enumeration of {whole // part} elements exceeds element "
                    f"bound {self.element_bound}"
                )
            stops, order = self.ascent_stops(J), sorted(gens)
            level = [start]
            cached = [start]
            while level:
                level = list(dict.fromkeys(
                    self.right_mul(w, i) for w in level for i in order
                    if w.key[i] not in stops
                ))
                cached.extend(level)
            if len(cached) * part != whole:
                raise ConsistencyError(
                    f"ascent over {sorted(gens)} from {self.reduced_word(start)} found "
                    f"{len(cached)} elements with no left descent in {sorted(J)}; "
                    "the closed form disagrees"
                )
            cache[(gens, J)] = cached
        return cached

    def elements(self) -> list[WeylElement]:
        """All elements, breadth-first by length, in first-reached order
        within a level."""
        return self.ascend(range(self.n), ())

