"""Brute-force re-derivations of every nontrivial combinatorial claim.

Each oracle here uses a method algorithmically independent of the engine:
subword dynamic programming instead of the lifting recursion, and closure
classes with explicit minima instead of growing ^J W by ascents.  The double
cosets W_J w W_K and the cosets W_J w are the classes of W under closure by
left-J (and right-K) moves by simple reflections, and a coset's minimum or its
top element is taken explicitly over its class; forming the classes costs
|W|·(|J| + |K|) memoized single-reflection steps and no general product.  The
fiber of a stratum is the set of J-minimal members of its double-coset class,
since for w in ^J W the minimum of w W_K is the minimum of W_J w W_K
(Bjorner-Brenti, "Combinatorics of Coxeter Groups", section 2.4).  The stratum
dimensions, Howlett's length formula and the maximal stratum are re-derived
from these classes and from subword intervals, and the engine's values are
compared against them.  The single-fiber criterion x^-1 {s_j : j in J} x =
{s_k : k in K} is checked as {s_j x : j in J} == {x s_k : k in K}, two sets of
single-reflection steps, where the engine reads conjugation off the root
permutation of x.  They are meant for tests and for the --verify flag, not for
speed.  Each check reports its first counterexample, or passes without one.
"""

from __future__ import annotations

from . import parabolic
from .atlas import Atlas, eo_fiber
from .coxeter import WeylElement, WeylGroup
from .errors import ConsistencyError
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


def brute_interval(group: WeylGroup, word) -> set[WeylElement]:
    """All subword products of ``word`` (the lower Bruhat interval)."""
    reachable = {group.identity}
    for i in word:
        reachable |= {group.right_mul(u, i) for u in reachable}
    return reachable


def _closure_classes(group: WeylGroup, J, K, keep) -> list:
    """``keep(members)`` for the members of each class of W under closure by
    left-J and right-K moves by simple reflections.  Only what ``keep`` returns
    outlives the pass.  Costs |W|·(|J| + |K|) memoized ``left_mul`` and
    ``right_mul`` steps and no general product; ``elements()`` has formed
    every right step already, in both directions."""
    J = group.check_subset(J)
    K = group.check_subset(K)
    # enumerate first: elements() refuses a group past the bound before
    # |W| bytes are allocated; uids run below |W|, so membership stays in C
    elements = group.elements()
    assigned = bytearray(len(elements))
    left = [group.n + j for j in J]
    kept = []
    for w in elements:
        if assigned[w.uid]:
            continue
        # s s = e makes every move reversible, so nothing reachable from an
        # unassigned w is assigned yet except by this block; the loop visits
        # what it appends, breadth-first
        assigned[w.uid] = 1
        block = [w]
        for u in block:
            steps = u.steps  # memo hits are read inline; a miss forms the step
            for j, nj in zip(J, left):
                v = steps[nj] or group.left_mul(j, u)
                if not assigned[v.uid]:
                    assigned[v.uid] = 1
                    block.append(v)
            for k in K:
                v = steps[k] or group.right_mul(u, k)
                if not assigned[v.uid]:
                    assigned[v.uid] = 1
                    block.append(v)
        kept.append(keep(block))
    return kept


def _unique_by_length(elements, pick) -> WeylElement:
    """The element that ``pick`` (``min`` or ``max``) selects by length,
    refused unless no other element has its length."""
    best = pick(elements, key=lambda v: v.length)
    if sum(1 for v in elements if v.length == best.length) != 1:  # pragma: no cover
        raise ConsistencyError(
            f"{pick.__name__} length {best.length} is attained more than once, "
            f"at {best.group.reduced_word(best)} and others"
        )
    return best


def brute_double_cosets(group: WeylGroup, J, K) -> list[list[WeylElement]]:
    """Partition of W by closure under left-J and right-K multiplication,
    each class sorted by (length, key)."""
    return _closure_classes(
        group, J, K, lambda block: sorted(block, key=lambda u: (u.length, u.key))
    )


def brute_min_left_reps(group: WeylGroup, J) -> set[WeylElement]:
    """Shortest element of each coset W_J w: the cosets are the closure
    classes of W under left multiplication by the simple reflections of J,
    and each minimum is taken explicitly over its class."""
    return set(
        _closure_classes(group, J, (), lambda coset: _unique_by_length(coset, min))
    )


def brute_project(group: WeylGroup, w: WeylElement, K) -> WeylElement:
    """Shortest element of w W_K by scanning the whole coset.  Not used by
    :func:`verify_atlas`; it goes when ``perfbench/tracer.py`` stops tracing
    it."""
    K = group.check_subset(K)
    return _unique_by_length(
        [group.multiply(w, v) for v in group.subgroup_elements(K)], min
    )


def verify_atlas(atlas: Atlas) -> VerificationReport:
    """Re-derive the atlas content by brute force and diff every claim."""
    report = VerificationReport([])
    group = atlas.group
    word = group.reduced_word
    J, K = atlas.J, atlas.K
    scope = f"{atlas.case.spec.describe()} J={sorted(J)} K={sorted(K)}"

    def check(name: str, counterexamples):
        ce = next(iter(counterexamples), None)
        report.checks.append(CheckResult(name, scope, ce is None, ce))

    # double-coset representatives from the closure partition
    classes = brute_double_cosets(group, J, K)
    differ = {cls[0] for cls in classes} ^ {w for s in atlas.strata for w in s.orbit}
    check(
        "double_representatives",
        [f"symmetric difference {len(differ)} elements"] if differ else [],
    )

    # the fiber of each class minimum is the class's J-minimal part, and its
    # top element is the longest member of that part
    left_reps = brute_min_left_reps(group, J)
    fibers = {cls[0]: [w for w in cls if w in left_reps] for cls in classes}
    check(
        "fiber_partition",
        (
            f"x={word(x)}"
            for s in atlas.strata
            for x in s.orbit
            if set(s.eo_fiber if x == s.rep else eo_fiber(group, x, J, K))
            != set(fibers.get(x, ()))
        ),
    )

    tops = {x: _unique_by_length(fiber, max) for x, fiber in fibers.items()}

    # dimensions: the length of the brute top element
    check(
        "dimensions",
        (
            f"missing class for {word(x)}"
            if x not in tops
            else f"x={word(x)}: {tops[x].length} != {s.dim}"
            for s in atlas.strata
            for x in s.orbit
            if x not in tops or tops[x].length != s.dim
        ),
    )

    # Howlett additivity: the engine's x_upper and ell_JK against the brute top
    def howlett_holds(s) -> bool:
        Jx = group.induced_subset(s.rep, J, K)
        xu, dim = parabolic.x_upper(group, s.rep, Jx, K)
        ell = parabolic.ell_JK(group, s.rep, Jx, K)
        return xu is tops.get(s.rep) and dim == ell == s.dim == xu.length

    check(
        "howlett_lengths",
        (f"x={word(s.rep)}" for s in atlas.strata if not howlett_holds(s)),
    )

    # closures from subword-oracle intervals on orbit members
    poset = atlas.orbit_poset
    n = len(poset)
    brute_leq = []  # brute_leq[b][a]: some member of orbit a is below rep b
    for rep in poset.reps:
        interval = brute_interval(group, word(rep))
        brute_leq.append([any(w in interval for w in orbit) for orbit in poset.orbits])
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
        top = tops.get(s.rep)
        if not (
            len(s.orbit) == 1
            and top is not None
            and top.length == atlas.moduli_dim
            and sorted(s.closure) == list(range(len(atlas.strata)))
        ):
            yield f"x={word(s.rep)}"

    check("maximal_stratum", maximal_stratum())

    # single-fiber criterion: x^-1 s_j x = s_k exactly when s_j x = x s_k, so
    # the conjugates of J are the reflections of K iff the two step sets agree
    def single_by_steps(x) -> bool:
        return {group.left_mul(j, x) for j in J} == {group.right_mul(x, k) for k in K}

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
