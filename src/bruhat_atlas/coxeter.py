"""Finite Weyl groups acting on the W-orbits of dominant weights.

An element w of ^J W, the shortest elements of the cosets W_J w, is held as
the weight v = w^-1 lambda_J in fundamental-weight coordinates, where lambda_J
is the sum of the fundamental weights omega_j over j not in J: n small ints.
W itself is the case J empty, lambda = rho.  The stabilizer of lambda_J is
W_J, so w -> w^-1 lambda_J is a bijection from ^J W onto the orbit of
lambda_J (Humphreys, "Reflection Groups and Coxeter Groups", section 1.12;
Casselman, "Machine calculations in Weyl groups", 1994).  Coordinate i is
<lambda_J, w alpha_i^vee>, so every rule of the engine reads one coordinate:

- w s_i has the weight s_i(v) = v - v_i (column i of the Cartan matrix),
  which changes only i and its neighbours in the diagram;
- w s_i is an ascent inside ^J W when v_i > 0 and a descent when v_i < 0;
  when v_i = 0, w alpha_i is a root of W_J and the coset W_J w does not move;
- w lies in ^J W^K exactly when v_k >= 0 for every k in K;
- a diagram symmetry phi with phi(J) = J permutes the coordinates.

Elements are born in one place, :meth:`WeylGroup.ascend`, which grows all of
^J W (all of W when J is empty) by ascents from its identity and keeps the
list, so per group and per J equal means identical.  Each element is born
with its length, its reduced word and, once its level is grown, its right
steps, each kept on both elements it joins; the rest of the engine only
reads them, and finds no element by its weight.  The canonical word is the
lexicographically first reduced word, the one that peels the smallest left
descent first.  ``ascend`` lists ^J W in (length, reduced word) order, so a
build grows it once and reads every fiber off it (:func:`eo_fibers`).
Its size |W| / |W_J| is known before it grows, from root heights
(:meth:`WeylGroup.parabolic`): the element bound of a group limits how
many elements it materializes, and a ^J W whose closed-form count exceeds it
is refused before it grows.  This module is the one reader of the weights and
steps: the rest of the library reaches ^J W through ``ascend``,
``apply_automorphism``, ``induced_subset``, :func:`eo_fibers` and
:func:`lower_sets`, and through an element's ``word`` and ``length``.

The one Bruhat order is :func:`lower_sets`, a forward pass over ^J W in the
length order ``ascend`` grows it in, along the steps it kept on each element;
the pass forms no element.  Let w be reached first as w = us, an ascent of u
inside ^J W (coordinate s of u's weight positive).  Every element of ^J W
below w lies below some member of the generating set

    gens(w) = {u} | {ys : y in gens(u), ys an ascent of y inside ^J W},

with gens(e) empty.  Indeed, take x in ^J W with x < w and x not <= u.  By
the lifting property (Bjorner-Brenti, "Combinatorics of Coxeter Groups",
Prop. 2.2.7) xs < x and xs < u, so xs <= y for some y in gens(u); then
x <= max(y, ys), and x <= ys with ys in ^J W, since otherwise the projection
onto ^J W, which preserves the order (section 2.5), gives x <= y < u.  So
down(w) = bits(w) | the union of down(y) over y in gens(w).  Each bit is a
caller's label: an orbit id for the closure order, an element's index for
element-wide intervals.
"""

from .errors import BoundError, ConsistencyError, InputError
from .rootdata import CartanMatrix, DiagramAutomorphism, positive_roots

DEFAULT_BOUND = 10**6


def check_bound(element_bound, rank: int):
    """Refuse an element bound that is not an integer >= 1, then a rank at or
    past it; both before anything of size ``rank`` is built.  A group lists
    at least one positive root per node, and each element holds one
    coordinate per node, so such a rank is past any size the bound admits."""
    if type(element_bound) is not int or element_bound < 1:
        raise InputError(
            f"options.element_bound must be an integer >= 1, got {element_bound!r}"
        )
    if rank >= element_bound:
        raise BoundError(
            f"rank {rank} is past element bound {element_bound}: a group "
            "lists at least one positive root per node"
        )


class WeylElement:
    """One element of ^J W; only :meth:`WeylGroup.ascend` creates these.

    ``weight`` is w^-1 lambda_J (see the module docstring) and ``J`` the
    subset it lives under.  ``word`` is the lexicographically first reduced
    word, and ``length`` its length.  ``steps[i]`` is w s_i, or None where
    v_i = 0 and the step stays at w.  No registry key is kept: only
    ``ascend`` finds an element by its weight, while it grows ^J W.
    Equality is identity: a group interns one element per J and weight.
    """

    __slots__ = ("group", "J", "weight", "length", "steps", "word")

    def __init__(self, group: "WeylGroup", J, weight, word: tuple[int, ...]):
        self.group = group
        self.J = J
        self.weight = weight
        self.word = word
        self.length = len(word)
        self.steps: list[WeylElement | None] = [None] * group.n

    def __repr__(self):
        return f"WeylElement(weight={self.weight}, J={sorted(self.J)})"


class WeylGroup:
    """The Weyl group of a Cartan matrix, with cached combinatorial data."""

    def __init__(self, cartan: CartanMatrix, element_bound: int = DEFAULT_BOUND):
        self.cartan = cartan
        self.n = n = cartan.n
        self.element_bound = element_bound
        self.pos_roots = positive_roots(cartan)
        supports = (frozenset(k for k, c in enumerate(r) if c) for r in self.pos_roots)
        self._heights = list(zip(supports, map(sum, self.pos_roots)))
        # alpha_i in fundamental-weight coordinates: column i of the Cartan matrix
        a = cartan.entries
        self._columns = tuple(
            tuple((k, a[k][i]) for k in range(n) if a[k][i]) for i in range(n)
        )
        self._base = 2 * len(self.pos_roots) + 1
        self._column_codes = tuple(
            sum(a * self._base**k for k, a in column) for column in self._columns
        )
        self._count = 0
        self._ascend_cache: dict[frozenset[int], list[WeylElement]] = {}
        self.order = self.parabolic(range(n))[0]

    # -- element construction ------------------------------------------------

    def _intern(self, J: frozenset[int], weight, word) -> WeylElement:
        """A new element of ^J W; the caller knows ``weight`` is not yet born
        and knows its reduced word."""
        if self._count >= self.element_bound:
            raise BoundError(
                f"element bound {self.element_bound} exceeded: "
                f"{self._count + 1} elements materialized"
            )
        self._count += 1
        return WeylElement(self, J, weight, word)

    def _reflect(self, weight, i: int) -> tuple[int, ...]:
        """s_i(weight) = weight - weight_i alpha_i."""
        out, c = list(weight), weight[i]
        for k, a in self._columns[i]:
            out[k] -= c * a
        return tuple(out)

    def check_ambient(self, w: WeylElement):
        if w.group is not self:
            raise InputError("element belongs to a different ambient group")

    # -- parabolic helpers ---------------------------------------------------

    def check_subset(self, J) -> frozenset[int]:
        """J as a frozenset of node ids of this group, refused otherwise: an
        id must be an int (frozenset({1.0}) == frozenset({1}), but 1.0 is
        refused) in 0..n-1."""
        J = frozenset(J)
        bad = [i for i in J if not (isinstance(i, int) and 0 <= i < self.n)]
        if bad:
            raise InputError(f"invalid node ids {sorted(bad)} for rank {self.n}")
        return J

    def parabolic(self, S) -> tuple[int, int]:
        """|W_S| and N_S, the number of positive roots supported in S, which
        is the length of the longest element of W_S.  |W_S| = prod (ht a + 1)
        / ht a over those roots a: Macdonald's formula for the Poincare
        polynomial at q = 1 ("The Poincare series of a Coxeter group", Math.
        Ann. 199, 1972)."""
        S = self.check_subset(S)
        num = den = 1
        count = 0
        for support, height in self._heights:
            if support <= S:
                num *= height + 1
                den *= height
                count += 1
        return num // den, count

    def opposition(self, J) -> frozenset[int]:
        """{j* : j in J}, where w0 alpha_j = -alpha_j*.  The longest element
        w0 is reached from rho by right ascents, and lam = sum (j + 1) omega_j
        is carried along, so it ends as w0^-1 lam = w0 lam = -sum (j + 1)
        omega_j*."""
        J = self.check_subset(J)
        rho, lam = (1,) * self.n, tuple(range(1, self.n + 1))
        while (i := next((k for k, c in enumerate(rho) if c > 0), None)) is not None:
            rho, lam = self._reflect(rho, i), self._reflect(lam, i)
        star = {-c - 1: k for k, c in enumerate(lam)}
        if sorted(star) != list(range(self.n)):
            raise ConsistencyError("w0 did not negate a simple root")
        return frozenset(star[j] for j in J)

    # -- automorphisms ---------------------------------------------------------

    def apply_automorphism(self, phi: DiagramAutomorphism, w: WeylElement) -> WeylElement:
        """phi(w) for w in ^J W with phi(J) = J, refused otherwise: the walk
        from the identity of ^J W along the kept steps phi(i), i in w.word.
        phi(s_i1 ... s_ik) = s_phi(i1) ... s_phi(ik) is reduced, and with
        phi(J) = J each of its prefixes is the image of a prefix of w, so in
        ^J W: every step of the walk is a kept ascent."""
        p = phi.perm
        if len(p) != self.n:
            raise InputError("automorphism rank mismatch")
        self.check_ambient(w)
        if phi.apply_subset(w.J) != w.J:
            raise InputError(f"automorphism moves J={sorted(w.J)}")
        image = self._ascend_cache[w.J][0]
        for i in w.word:
            image = image.steps[p[i]]
        return image

    # -- enumeration -----------------------------------------------------------

    def induced_subset(self, x: WeylElement, J, K) -> frozenset[int]:
        """{k in K : x s_k x^-1 is a simple reflection from J}, for x in ^J W^K
        (refused otherwise): the k in K with v_k = 0.  Then x alpha_k is a
        positive root of W_J, and x^-1 sends the simple roots of J to positive
        roots, so x alpha_k is simple."""
        J = self.check_subset(J)
        K = self.check_subset(K)
        self.check_ambient(x)
        if x.J != J:
            raise InputError(
                f"element {list(x.word)} lies in ^J W for J={sorted(x.J)}, "
                f"not for J={sorted(J)}"
            )
        right = sorted(k for k in K if x.weight[k] < 0)
        if right:
            raise InputError(
                f"element {list(x.word)} is not a minimal double "
                f"representative for J={sorted(J)}, K={sorted(K)}: right descents "
                f"{right} in K"
            )
        return frozenset(k for k in K if not x.weight[k])

    def ascend(self, J) -> list[WeylElement]:
        """^J W, grown from its identity lambda_J, breadth-first by length,
        each level in the order its elements are first reached: from the
        level before in its order, by the nodes in increasing order.  Kept
        per J; the only place where elements are born.

        ^J W is closed under prefixes, so each level is grown from the one
        before by the steps with v_i > 0.  Each step is kept on both elements
        it joins, so once grown, ``steps[i]`` is set exactly where v_i != 0.
        While ^J W grows, a local registry keys each weight by the integer
        sum v_k R^k, R = 2N + 1: each |v_k| is at most the height of a
        coroot, so at most N, the digits are balanced and the key is exact,
        and a step moves it by v_i times the key of alpha_i.  Each level
        carries its keys beside its elements, and the registry is dropped
        once ^J W is grown.
        The count is |W| / |W_J|: refused up front past the element bound,
        and checked once grown.  Induction on the length shows that the list
        is in (length, reduced word) order: the first parent u of w reached,
        at the least position of its level, has the least word among w's
        parents, so word(w) is word(u) + (d,) for the node d of the step u ->
        w, and w is born with it.
        """
        J = self.check_subset(J)
        cached = self._ascend_cache.get(J)
        if cached is None:
            part = self.parabolic(J)[0]
            if self.order > self.element_bound * part:
                raise BoundError(
                    f"enumeration of {self.order // part} elements exceeds element "
                    f"bound {self.element_bound}"
                )
            weight = tuple(0 if j in J else 1 for j in range(self.n))
            identity = self._intern(J, weight, ())
            code = sum(self._base**j for j, c in enumerate(weight) if c)
            registry = {code: identity}
            cached, level = [identity], [(identity, code)]
            while level:
                born = []
                for w, code in level:
                    for i, c in enumerate(w.weight):
                        if c > 0:
                            key = code - c * self._column_codes[i]
                            u = registry.get(key)
                            if u is None:
                                u = registry[key] = self._intern(
                                    J, self._reflect(w.weight, i), w.word + (i,)
                                )
                                born.append((u, key))
                            w.steps[i] = u
                            u.steps[i] = w
                cached.extend(u for u, _ in born)
                level = born
            if len(cached) * part != self.order:
                raise ConsistencyError(
                    f"ascent found {len(cached)} elements with no left descent in "
                    f"{sorted(J)}; the closed form disagrees"
                )
            self._ascend_cache[J] = cached
        return cached


def eo_fibers(group: WeylGroup, J, K) -> dict[WeylElement, list[WeylElement]]:
    """The finer strata: each x in ^J W^K mapped to its fiber, the J-minimal
    elements of x W_K, in (length, reduced word) order.

    One pass over ^J W in the order :meth:`WeylGroup.ascend` grows it in.
    When some k in K has v_k < 0, w s_k is a right descent of w, in ^J W and
    in w W_K, grown before w with its step kept on w; w joins its fiber.  A
    path of such descents ends at the minimum of w W_K, the one element of
    ^J W^K in W_J w W_K (Bjorner-Brenti, section 2.4).  Otherwise w lies in
    ^J W^K and starts its own fiber."""
    K = sorted(group.check_subset(K))
    fibers, home = {}, {}
    for w in group.ascend(J):
        k = next((k for k in K if w.weight[k] < 0), None)
        fiber = home[w] = fibers.setdefault(w, []) if k is None else home[w.steps[k]]
        fiber.append(w)
    return fibers


def lower_sets(
    group: WeylGroup, J, bits: dict[WeylElement, int]
) -> dict[WeylElement, int]:
    """down(w) for every w in ^J W: the OR of ``bits.get(x, 0)`` over the x in
    ^J W with x <= w, keyed by element.

    One pass over ^J W in length order carries each element's generating set
    (module docstring), at most length(w) elements, and drops it once
    down(w) is formed.  It reads only the steps that ``ascend`` kept, so
    beyond growing ^J W once it forms and interns nothing.
    """
    nodes = range(group.n)
    jw = group.ascend(J)
    gens = {jw[0]: ()}
    down = {}
    for u in jw:
        lower = gens.pop(u)
        mask = bits.get(u, 0)
        for y in lower:
            mask |= down[y]
        down[u] = mask
        weight, steps = u.weight, u.steps
        for s in nodes:
            # the first u to reach w = us fixes gens(w)
            if weight[s] > 0 and (w := steps[s]) not in gens:
                gens[w] = (u, *[y.steps[s] for y in lower if y.weight[s] > 0])
    return down
