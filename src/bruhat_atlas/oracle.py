"""Brute-force re-derivations of every nontrivial combinatorial claim.

Each oracle here uses a method algorithmically independent of the engine:
subword products instead of the forward pass of :func:`coxeter.lower_sets`,
closure classes with explicit minima instead of growing ^J W by ascents, and
an element of W as the permutation it induces on the 2N roots instead of a
weight of ^J W (Casselman, "Machine calculations in Weyl groups", 1994).  The
roots are indexed once, the N positive roots first with alpha_i at index i,
and -beta at (index of beta) + N; ``key[r]`` is the index of w(root r), as
``bytes``, so a product is one ``bytes.translate`` and a key caches its hash.
The oracle shares with the engine only the Cartan matrix and the positive
roots, and maps an engine element to its key through its reduced word.  Past
the claims under test it calls one engine routine, :func:`coxeter.eo_fibers`:
``fiber_partition`` reads from it the fibers of the orbit members other than
the representative, which the atlas does not hold (ROADMAP item 2 would
check the written document instead).

W is walked one coset W_J w at a time.  W_J is grown once from the identity by
left-J steps, and the coset W_J v is v translated by each of its keys.  A
right step maps the coset W_J u to W_J u s_i whichever u it is taken at, so
the right simple steps from each coset's first key reach every coset:
|W|/|W_J|·n steps taken one by one, the rest inside ``bytes.translate``.  The
length of a key is the number of positive roots it sends to negative ones
(Humphreys, "Reflection Groups and Coxeter Groups", section 1.7), counted on
``key[:N]``.  The double cosets W_J w W_K are the unions of cosets along
right-K steps from their minima, |K| steps per coset.  The fiber of a stratum
is the J-minimal part of its double coset, since for w in ^J W the minimum of
w W_K is the minimum of W_J w W_K (Bjorner-Brenti, "Combinatorics of Coxeter
Groups", section 2.4), and its top is Howlett's product x w0(J_x) w0(K), with
J_x = {k in K : x(alpha_k) = alpha_j, j in J} read off the key of x.  The
single-fiber criterion x^-1 {s_j : j in J} x = {s_k : k in K} is checked as
{s_j x : j in J} == {x s_k : k in K}.  The closure order is checked on the
strata's own orbits and representatives: each stratum's mask holds the orbits
that meet the subword interval of its representative, and is compared with the
mask the writers read.  K is re-derived from J through the key of w0, which
sends alpha_i to -alpha_i*, and each orbit as the cycle of its representative
under phi^d, which acts on keys by conjugation with the permutation of root
indices it makes.  Each of the ten checks reports its first counterexample, or
passes without one.  The classes themselves, listed as sets of keys, are read
off :func:`_cosets` in ``tests/reference.py``, since only the tests list them.
"""

from functools import cache, reduce
from itertools import repeat

from .atlas import Atlas
# the one engine routine called past the claims checked (module docstring)
from .coxeter import WeylGroup, eo_fibers
from .errors import BoundError, ConsistencyError
from .rootdata import Record, reflect


class CheckResult(Record):
    __slots__ = ("name", "scope", "passed", "counterexample")


class VerificationReport(Record):
    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name} ({c.scope})"
            if c.counterexample:
                line += f" counterexample: {c.counterexample}"
            lines.append(line)
        return "\n".join(lines)


class RootKeys:
    """The elements of a group's W as root permutations (module docstring);
    ``roots`` lists the root vectors in key order.

    Refused with :class:`BoundError` when |W| is past the group's element
    bound, since every oracle enumerates W, and then when the 2N roots do not
    fit a byte, before any key is built."""

    def __init__(self, group: WeylGroup):
        if group.order > group.element_bound:
            raise BoundError(
                f"the oracle enumerates all {group.order} elements of W, past element "
                f"bound {group.element_bound}"
            )
        n = group.n
        simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        positive = simples + [r for r in group.pos_roots if sum(r) > 1]
        width = 2 * len(positive)
        if width > 256:
            raise BoundError(f"the oracle's keys hold {width} > 256 roots")
        self.roots = positive + [tuple(-c for c in r) for r in positive]
        index = {root: r for r, root in enumerate(self.roots)}
        self.n, self.N, self.order = n, len(positive), group.order
        self._pad = bytes(256 - width)
        self.identity = bytes(range(width))
        self.simple = [
            bytes(index[reflect(group.cartan, i, r)] for r in self.roots) for i in range(n)
        ]
        self._simple_tables = [self.table(s) for s in self.simple]

    def table(self, key: bytes) -> bytes:
        """``key`` padded to a ``bytes.translate`` table."""
        return key + self._pad

    def product(self, a: bytes, b: bytes) -> bytes:
        """(a b)(root r) = a(b(root r))."""
        return b.translate(self.table(a))

    def left(self, i: int, key: bytes) -> bytes:
        """s_i w."""
        return key.translate(self._simple_tables[i])

    def of_word(self, word) -> bytes:
        """The key of s_i1 ... s_ik."""
        key = self.identity
        for i in word:
            key = self.simple[i].translate(self.table(key))
        return key

    def peel(self, key: bytes) -> list[int]:
        """The reduced word of ``key`` that peels its smallest left descent
        first; the left descents are the simple-root indices in ``key[N:]``."""
        word = []
        while (i := min(key[self.N:])) < self.n:
            word.append(i)
            key = self.left(i, key)
        return word

    def longest(self, S) -> bytes:
        """The longest element of W_S, grown by right ascents: w s_j is longer
        exactly when w(alpha_j) is positive."""
        key = self.identity
        while (j := next((j for j in sorted(S) if key[j] < self.N), None)) is not None:
            key = self.simple[j].translate(self.table(key))
        return key


def _unique_by_length(keys: RootKeys, lengths: dict[bytes, int], members, pick) -> bytes:
    """The key that ``pick`` (``min`` or ``max``) selects by length, refused
    unless no other key has its length."""
    ells = list(map(lengths.__getitem__, members))
    best = members[ells.index(ell := pick(ells))]
    if ells.count(ell) != 1:
        raise ConsistencyError(
            f"{pick.__name__} length {ell} is attained more than once, "
            f"at {keys.peel(best)} and others"
        )
    return best


def _cosets(keys: RootKeys, J, K) -> tuple[dict, dict, list, list]:
    """The length and the coset W_J w of each key, each coset's minimum, and
    each double coset W_J w W_K as the list of the cosets it unites, walked
    one coset at a time (module docstring); the cosets are numbered as the
    walk meets them.  Checked against |W| once walked."""
    sub = [keys.identity]  # W_J, breadth-first by left-J steps
    left, seen = [keys.table(keys.simple[j]) for j in J], set(sub)
    for u in sub:
        if len(sub) > keys.order:
            break
        for t in left:
            if (v := u.translate(t)) not in seen:
                seen.add(v)
                sub.append(v)
    tables = [keys.table(u) for u in sub]
    coset, blocks = dict.fromkeys(sub, 0), [sub]
    for block in blocks:
        if len(coset) > keys.order:
            break
        t = keys.table(block[0])
        for s in keys.simple:
            if (v := s.translate(t)) not in coset:  # W_J v, first met at v
                blocks.append(new := list(map(v.translate, tables)))
                coset.update(dict.fromkeys(new, len(blocks) - 1))
    if len(coset) != keys.order:
        raise ConsistencyError(
            f"the oracle's pass over W found {len(coset)} elements, "
            f"but |W| is {keys.order}"
        )
    heads = map(bytes.__getitem__, coset, repeat(slice(keys.N)))
    negative = map(bytes.translate, heads, repeat(None), repeat(bytes(range(keys.N))))
    lengths = coset.copy()  # the same keys, so no resize
    lengths.update(zip(coset, map(len, negative)))
    minima = [_unique_by_length(keys, lengths, block, min) for block in blocks]
    right = [keys.simple[k] for k in K]
    placed, classes = bytearray(len(minima)), []
    for c in range(len(minima)):
        if not placed[c]:
            placed[c], cls = 1, [c]
            for d in cls:
                t = keys.table(minima[d])
                for s in right:
                    if not placed[e := coset[s.translate(t)]]:  # W_J m s_k
                        placed[e] = 1
                        cls.append(e)
            classes.append(cls)
    return lengths, coset, minima, classes


def brute_interval(keys: RootKeys, word) -> set[bytes]:
    """The keys of all subword products of ``word`` (the lower Bruhat
    interval), its letters taken from the right by left simple steps."""
    reachable = {keys.identity}
    for i in reversed(word):
        t = keys.table(keys.simple[i])
        reachable = reachable.union(map(bytes.translate, reachable, repeat(t)))
    return reachable


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def verify_atlas(atlas: Atlas) -> VerificationReport:
    """Re-derive the atlas content by brute force and diff every claim."""
    report = VerificationReport([])
    group, J, K = atlas.group, atlas.J, atlas.K
    scope = f"{atlas.case.spec.describe()} J={sorted(J)} K={sorted(K)}"
    keys = RootKeys(group)

    def word(w) -> list[int]:
        return list(w.word)

    @cache  # each element's word is walked once
    def key(w) -> bytes:
        return keys.of_word(w.word)

    def check(name: str, counterexamples):
        ce = next(iter(counterexamples), None)
        report.checks.append(CheckResult(name, scope, ce is None, ce))

    # each double coset's fiber is its J-minimal part, the minima of its
    # cosets; the class minimum and the top element are its shortest and its
    # longest member
    lengths, _, minima, classes = _cosets(keys, J, K)
    fibers, tops = {}, {}
    for cls in classes:
        fiber = [minima[c] for c in cls]
        x = _unique_by_length(keys, lengths, fiber, min)
        fibers[x], tops[x] = fiber, _unique_by_length(keys, lengths, fiber, max)
    differ = fibers.keys() ^ {key(w) for s in atlas.strata for w in s.orbit}
    check(
        "double_representatives",
        [f"symmetric difference {len(differ)} elements"] if differ else [],
    )
    claimed = eo_fibers(group, J, K)  # the fibers of the other orbit members
    check(
        "fiber_partition",
        (
            f"x={word(x)}"
            for s in atlas.strata
            for x in s.orbit
            if {key(w) for w in (s.eo_fiber if x == s.rep else claimed.get(x, ()))}
            != set(fibers.get(key(x), ()))
        ),
    )

    # dimensions: the length of the brute top element
    dims = {x: lengths[top] for x, top in tops.items()}
    check(
        "dimensions",
        (
            f"missing class for {word(x)}"
            if key(x) not in dims
            else f"x={word(x)}: {dims[key(x)]} != {s.dim}"
            for s in atlas.strata
            for x in s.orbit
            if dims.get(key(x)) != s.dim
        ),
    )

    # Howlett additivity: x w0(J_x) w0(K), formed on keys, is the brute top
    # element and the last of the claimed fiber, and its length is the
    # claimed dimension
    w0K = keys.longest(K)

    def howlett_holds(s) -> bool:
        x = key(s.rep)
        Jx = [k for k in K if x[k] in J]  # x(alpha_k) = alpha_j with j in J
        top = keys.product(x, keys.product(keys.longest(Jx), w0K))
        return top == tops.get(x) == key(s.eo_fiber[-1]) and lengths[top] == s.dim

    check(
        "howlett_lengths",
        (f"x={word(s.rep)}" for s in atlas.strata if not howlett_holds(s)),
    )

    # closures from subword-oracle intervals on the strata's orbits, against
    # the down-set masks the writers read each stratum's closure off; a key
    # holds the mask of the orbits it lies in, one orbit unless the atlas is
    # at fault
    strata, poset = atlas.strata, atlas.orbit_poset
    n = len(strata)
    full = (1 << n) - 1
    holders = {}
    for a, s in enumerate(strata):
        for k in map(key, s.orbit):
            holders[k] = holders.get(k, 0) | 1 << a
    brute = [  # brute[b] bit a: some member of orbit a is below rep b
        reduce(int.__or__, map(holders.__getitem__, holders.keys() & interval), 0)
        for interval in (brute_interval(keys, s.rep.word) for s in strata)
    ]
    check(
        "closure_order",
        [f"{len(poset)} down-set masks for {n} strata"]
        if len(poset) != n
        else (
            f"orbits {a} <= {b}"
            for b in range(n)
            for a in _bits((brute[b] ^ poset.below[b]) & full)
        ),
    )

    # maximal stratum: the one orbit whose subword interval meets every orbit,
    # which the writers mark as the last stratum, with the full closure
    brute_max = [b for b in range(n) if brute[b] == full]

    def maximal_stratum():
        if brute_max != [n - 1]:
            yield f"brute maximum {brute_max}, last stratum {n - 1}"
            return
        s = strata[-1]
        if not (
            len(s.orbit) == 1
            and dims.get(key(s.rep)) == atlas.moduli_dim
            and len(poset) == n
            and poset.below[-1] == full
        ):
            yield f"x={word(s.rep)}"

    check("maximal_stratum", maximal_stratum())

    # single-fiber criterion: x^-1 s_j x = s_k exactly when s_j x = x s_k, so
    # the conjugates of J are the reflections of K iff the two step sets agree
    def single_by_steps(x) -> bool:
        x = key(x)
        left = {keys.left(j, x) for j in J}
        return left == {keys.product(x, keys.simple[k]) for k in K}

    check(
        "single_fiber_criterion",
        (
            f"x={word(s.rep)}"
            for s in atlas.strata
            if single_by_steps(s.rep) != (len(s.eo_fiber) == 1)
        ),
    )

    # antisymmetry of the subword-interval relation between orbits: the pairs
    # a < b with each below the other, in (b, a) order, found among the bits
    # of each mask above its own id, which a sound atlas in length order has
    # none of
    check(
        "orbit_order_antisymmetry",
        (
            f"orbits {a} and {b}"
            for b, a in sorted(
                (b, a) for a in range(n) for b in _bits((brute[a] >> a + 1) << a + 1)
                if brute[b] >> a & 1
            )
        ),
    )

    # parabolic types: J is the zeros of mu or the case's J, and K holds (phi j)*
    # for j in J, read off the oracle's w0, whose key sends index i to i* + N
    mu, phi = atlas.case.mu, atlas.case.phi.perm
    J0 = atlas.case.J if mu is None else {i for i, m in enumerate(mu.pairings) if m == 0}
    w0 = keys.longest(range(keys.n))
    K0 = {w0[phi[j]] - keys.N for j in J0}
    expected = f"expected J={sorted(J0)} K={sorted(K0)}"
    check("parabolic_types", [] if (J, K) == (J0, K0) else [expected])

    # Frobenius orbits: phi^d, for the least d with phi^d(J) = J, permutes the
    # coordinates of the roots; as that permutation P of root indices it acts
    # on a key by conjugation, and each orbit is the cycle of its representative
    power = phi
    while {power[j] for j in J} != J:
        power = tuple(phi[i] for i in power)
    index = {root: r for r, root in enumerate(keys.roots)}
    inverse = sorted(range(keys.n), key=power.__getitem__)  # inverse[power[i]] = i
    P = bytes(index[tuple(root[i] for i in inverse)] for root in keys.roots)
    P_inv = bytes(sorted(range(len(P)), key=P.__getitem__))

    def cycle(x: bytes) -> list[bytes]:
        out = [x]
        while (y := keys.product(P, keys.product(out[-1], P_inv))) != x:
            out.append(y)
        return sorted(out)

    misgrouped = (s for s in strata if sorted(map(key, s.orbit)) != cycle(key(s.rep)))
    check("frobenius_orbits", (f"x={word(s.rep)}" for s in misgrouped))

    return report
