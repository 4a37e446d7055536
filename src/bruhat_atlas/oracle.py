"""Brute-force re-derivations of every nontrivial combinatorial claim.

Each oracle here uses a method algorithmically independent of the engine:
subword products instead of the forward pass of :func:`galois.lower_sets`,
and closure classes with explicit minima instead of growing ^J W by
ascents.  It works on root-permutation keys, interns nothing, and shares
with the engine only the indexing of the roots, the keys of the simple
reflections and the one key fork that composes them; past the claims under
test it calls the engine only for the reduced words of its messages.  One
breadth-first pass by right
simple steps lists W with its lengths, the cosets W_J w are the classes of W
under left-J steps and the double cosets W_J w W_K their unions along right-K
steps: |W|·(n + |J|) steps and |K| per coset, each one ``bytes.translate``
of a key.  The fiber of a stratum is the J-minimal part of its double coset,
since for w in ^J W the minimum of w W_K is the minimum of W_J w W_K
(Bjorner-Brenti, "Combinatorics of Coxeter Groups", section 2.4).  The
single-fiber criterion x^-1 {s_j : j in J} x = {s_k : k in K} is checked as
{s_j x : j in J} == {x s_k : k in K}, where the engine reads conjugation off
the root permutation of x.  They are meant for tests and for the --verify
flag, not for speed.  Each check reports its first counterexample, or passes
without one.
"""

from __future__ import annotations

from . import parabolic
from .atlas import Atlas, eo_fiber
from .coxeter import Key, WeylGroup
from .errors import BoundError, ConsistencyError
from .rootdata import Record


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


def _lengths(group: WeylGroup) -> dict[Key, int]:
    """Every key of W with its length, breadth-first from the identity by
    right simple steps, so a key first met from level l lies on level l + 1.
    Refused past the element bound before it starts, and checked against |W|
    once grown."""
    order, compose, table = group.order, group._compose, group._table
    if order > group.element_bound:
        raise BoundError(
            f"the oracle enumerates all {order} elements of W, past element "
            f"bound {group.element_bound}"
        )
    simple = [s.key for s in group.simple]
    level = [group.identity.key]
    lengths = {level[0]: 0}
    while level and len(lengths) <= order:
        ell, nxt = lengths[level[0]] + 1, []
        for w in level:
            t = table(w)
            for s in simple:
                if (v := compose(s, t)) not in lengths:  # w s_i, first met
                    lengths[v] = ell
                    nxt.append(v)
        level = nxt
    if len(lengths) != order:
        raise ConsistencyError(
            f"the oracle's pass over W found {len(lengths)} elements, but |W| is {order}"
        )
    return lengths


def _unique_by_length(group: WeylGroup, lengths: dict[Key, int], keys, pick) -> Key:
    """The key that ``pick`` (``min`` or ``max``) selects by length, refused
    unless no other key has its length."""
    best = pick(keys, key=lengths.__getitem__)
    if sum(1 for v in keys if lengths[v] == lengths[best]) != 1:
        raise ConsistencyError(
            f"{pick.__name__} length {lengths[best]} is attained more than once, "
            f"at {list(group._peel(best))} and others"
        )
    return best


def _cosets(group: WeylGroup, J, K) -> tuple[dict, dict, list, list]:
    """The length and the coset W_J w of each key, each coset's minimum, and
    each double coset W_J w W_K as the list of the cosets it unites.  A right
    step maps the coset W_J u to W_J u s_k whichever u it is taken at, so the
    double cosets are the classes of cosets under right-K steps from their
    minima."""
    lengths = _lengths(group)
    compose, table = group._compose, group._table
    left = [table(group.simple[j].key) for j in group.check_subset(J)]
    right = [group.simple[k].key for k in group.check_subset(K)]
    coset, minima = dict.fromkeys(lengths), []
    for w in lengths:
        if coset[w] is None:
            coset[w], block = len(minima), [w]
            for u in block:
                for t in left:
                    if coset[v := compose(u, t)] is None:  # s_j u
                        coset[v] = coset[w]
                        block.append(v)
            minima.append(_unique_by_length(group, lengths, block, min))
    placed, classes = bytearray(len(minima)), []
    for c in range(len(minima)):
        if not placed[c]:
            placed[c], cls = 1, [c]
            for d in cls:
                t = table(minima[d])
                for s in right:
                    if not placed[e := coset[compose(s, t)]]:  # W_J m s_k
                        placed[e] = 1
                        cls.append(e)
            classes.append(cls)
    return lengths, coset, minima, classes


def brute_interval(group: WeylGroup, word) -> set[Key]:
    """The keys of all subword products of ``word`` (the lower Bruhat
    interval), its letters taken from the right by left simple steps."""
    reachable = {group.identity.key}
    for i in reversed(word):
        t = group._table(group.simple[i].key)
        reachable |= {group._compose(u, t) for u in reachable}
    return reachable


def brute_double_cosets(group: WeylGroup, J, K) -> list[list[Key]]:
    """Partition of W's keys by closure under left-J and right-K simple
    steps, each class sorted by (length, key)."""
    lengths, coset, _, classes = _cosets(group, J, K)
    members = [[] for _ in classes]
    into = {c: members[d] for d, cls in enumerate(classes) for c in cls}
    for w in sorted(coset, key=lambda w: (lengths[w], w)):
        into[coset[w]].append(w)
    return members


def brute_min_left_reps(group: WeylGroup, J) -> set[Key]:
    """The shortest key of each coset W_J w, a closure class of W under left
    simple steps by J, taken explicitly over its class."""
    return set(_cosets(group, J, ())[2])


def verify_atlas(atlas: Atlas) -> VerificationReport:
    """Re-derive the atlas content by brute force and diff every claim."""
    report = VerificationReport([])
    group, word, J, K = atlas.group, atlas.group.reduced_word, atlas.J, atlas.K
    scope = f"{atlas.case.spec.describe()} J={sorted(J)} K={sorted(K)}"

    def check(name: str, counterexamples):
        ce = next(iter(counterexamples), None)
        report.checks.append(CheckResult(name, scope, ce is None, ce))

    # each double coset's fiber is its J-minimal part, the minima of its
    # cosets; the class minimum and the top element are its shortest and its
    # longest member
    lengths, _, minima, classes = _cosets(group, J, K)
    fibers, tops = {}, {}
    for cls in classes:
        fiber = [minima[c] for c in cls]
        x = _unique_by_length(group, lengths, fiber, min)
        fibers[x], tops[x] = fiber, _unique_by_length(group, lengths, fiber, max)
    differ = fibers.keys() ^ {w.key for s in atlas.strata for w in s.orbit}
    check(
        "double_representatives",
        [f"symmetric difference {len(differ)} elements"] if differ else [],
    )
    check(
        "fiber_partition",
        (
            f"x={word(x)}"
            for s in atlas.strata
            for x in s.orbit
            if {w.key for w in (s.eo_fiber if x == s.rep else eo_fiber(group, x, J, K))}
            != set(fibers.get(x.key, ()))
        ),
    )

    # dimensions: the length of the brute top element
    dims = {x: lengths[top] for x, top in tops.items()}
    check(
        "dimensions",
        (
            f"missing class for {word(x)}"
            if x.key not in dims
            else f"x={word(x)}: {dims[x.key]} != {s.dim}"
            for s in atlas.strata
            for x in s.orbit
            if dims.get(x.key) != s.dim
        ),
    )

    # Howlett additivity: the engine's x_upper and ell_JK against the brute top
    def howlett_holds(s) -> bool:
        Jx = group.induced_subset(s.rep, J, K)
        xu, dim = parabolic.x_upper(group, s.rep, Jx, K)
        ell = parabolic.ell_JK(group, s.rep, Jx, K)
        return xu.key == tops.get(s.rep.key) and dim == ell == s.dim == xu.length

    check(
        "howlett_lengths",
        (f"x={word(s.rep)}" for s in atlas.strata if not howlett_holds(s)),
    )

    # closures from subword-oracle intervals on orbit members
    poset = atlas.orbit_poset
    n = len(poset)
    orbits = [[w.key for w in orbit] for orbit in poset.orbits]
    brute_leq = []  # brute_leq[b][a]: some member of orbit a is below rep b
    for rep in poset.reps:
        interval = brute_interval(group, word(rep))
        brute_leq.append([not interval.isdisjoint(orbit) for orbit in orbits])
    check(
        "closure_order",
        (
            f"orbits {a} <= {b}"
            for b in range(n)
            for a in range(n)
            if brute_leq[b][a] != poset.leq(a, b)
        ),
    )

    # maximal stratum: the one orbit whose subword interval meets every orbit
    brute_max = [b for b in range(n) if all(brute_leq[b])]
    flagged = [sid for sid, s in enumerate(atlas.strata) if s.is_maximal]

    def maximal_stratum():
        if len(brute_max) != 1 or flagged != brute_max:
            yield f"brute maximum {brute_max}, flagged {flagged}"
            return
        s = atlas.strata[brute_max[0]]
        if not (
            len(s.orbit) == 1
            and dims.get(s.rep.key) == atlas.moduli_dim
            and sorted(s.closure) == list(range(len(atlas.strata)))
        ):
            yield f"x={word(s.rep)}"

    check("maximal_stratum", maximal_stratum())

    # single-fiber criterion: x^-1 s_j x = s_k exactly when s_j x = x s_k, so
    # the conjugates of J are the reflections of K iff the two step sets agree
    compose, table = group._compose, group._table
    simple = [s.key for s in group.simple]

    def single_by_steps(x) -> bool:
        left = {compose(x.key, table(simple[j])) for j in J}
        return left == {compose(simple[k], table(x.key)) for k in K}

    check(
        "single_fiber_criterion",
        (
            f"x={word(s.rep)}"
            for s in atlas.strata
            if single_by_steps(s.rep) != s.single_eo
        ),
    )

    # antisymmetry of the subword-interval relation between orbits
    check(
        "orbit_order_antisymmetry",
        (
            f"orbits {a} and {b}"
            for b in range(n)
            for a in range(b)
            if brute_leq[b][a] and brute_leq[a][b]
        ),
    )

    return report
