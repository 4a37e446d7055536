"""Brute-force re-derivations of every nontrivial combinatorial claim.

Each oracle here uses a method algorithmically independent of the engine:
subword dynamic programming instead of the lifting recursion, closure of the
two-sided multiplication relation instead of descent filtering, and explicit
coset minima instead of greedy descent stripping.  They are meant for tests
and for the --verify flag, not for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import parabolic
from .atlas import Atlas
from .coxeter import WeylElement, WeylGroup
from .errors import InputError


@dataclass
class CheckResult:
    name: str
    scope: str
    passed: bool
    counterexample: str | None = None


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, scope: str, passed: bool, counterexample=None):
        self.checks.append(CheckResult(name, scope, passed, counterexample))

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name} ({c.scope})"
            if c.counterexample:
                line += f" counterexample: {c.counterexample}"
            lines.append(line)
        return "\n".join(lines)


def brute_bruhat(group: WeylGroup, x: WeylElement, w: WeylElement, word) -> bool:
    """Subword test: x is below w iff some subword of a reduced word of w
    multiplies to x."""
    if len(word) != w.length or group.from_word(word) != w:
        raise InputError("word is not a reduced word of w")
    return x in brute_interval(group, word)


def brute_interval(group: WeylGroup, word) -> set[WeylElement]:
    """All subword products of ``word`` (the lower Bruhat interval)."""
    reachable = {group.identity}
    for i in word:
        reachable |= {group.right_mul(u, i) for u in reachable}
    return reachable


def brute_double_cosets(group: WeylGroup, J, K) -> list[list[WeylElement]]:
    """Partition of W by closure under left-J and right-K multiplication."""
    J = group.check_subset(J)
    K = group.check_subset(K)
    elements = group.elements()
    assigned: set[WeylElement] = set()
    classes = []
    for w in elements:
        if w in assigned:
            continue
        block = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for u in frontier:
                for j in J:
                    v = group.left_mul(j, u)
                    if v not in block:
                        block.add(v)
                        nxt.append(v)
                for k in K:
                    v = group.right_mul(u, k)
                    if v not in block:
                        block.add(v)
                        nxt.append(v)
            frontier = nxt
        assigned |= block
        classes.append(sorted(block, key=lambda u: (u.length, u.key)))
    return classes


def brute_min_left_reps(group: WeylGroup, J) -> set[WeylElement]:
    """Shortest element of each coset W_J w, by explicit coset minima."""
    J = group.check_subset(J)
    subgroup = group.subgroup_elements(J)
    reps = set()
    for w in group.elements():
        coset = [group.multiply(u, w) for u in subgroup]
        best = min(coset, key=lambda v: v.length)
        if sum(1 for v in coset if v.length == best.length) != 1:  # pragma: no cover
            raise InputError("coset minimum is not unique")
        reps.add(best)
    return reps


def brute_project(group: WeylGroup, w: WeylElement, K) -> WeylElement:
    """Shortest element of w W_K by scanning the whole coset."""
    K = group.check_subset(K)
    coset = [group.multiply(w, v) for v in group.subgroup_elements(K)]
    best = min(coset, key=lambda u: u.length)
    if sum(1 for u in coset if u.length == best.length) != 1:  # pragma: no cover
        raise InputError("coset minimum is not unique")
    return best


def verify_atlas(atlas: Atlas) -> VerificationReport:
    """Re-derive the atlas content by brute force and diff every claim."""
    report = VerificationReport()
    group = atlas.group
    J, K = atlas.J, atlas.K
    scope = f"{atlas.case.spec.describe()} J={sorted(J)} K={sorted(K)}"

    # double-coset representatives from the closure partition
    classes = brute_double_cosets(group, J, K)
    brute_reps = {cls[0] for cls in classes}
    atlas_reps = {w for s in atlas.strata for w in s.orbit}
    report.add(
        "double_representatives",
        scope,
        brute_reps == atlas_reps,
        None
        if brute_reps == atlas_reps
        else f"symmetric difference {len(brute_reps ^ atlas_reps)} elements",
    )

    # fibers: group the finer index set by the brute projection
    left_reps = brute_min_left_reps(group, J)
    fibers: dict[WeylElement, set[WeylElement]] = {}
    for w in left_reps:
        fibers.setdefault(brute_project(group, w, K), set()).add(w)
    fiber_ok = True
    fiber_ce = None
    for s in atlas.strata:
        for x in s.orbit:
            expected = fibers.get(x, set())
            got = (
                {el for el, _ in s.eo_fiber}
                if x == s.rep
                else {el for el, _ in _fiber_of(atlas, x)}
            )
            if got != expected:
                fiber_ok = False
                fiber_ce = f"x={group.reduced_word(x)}"
                break
        if not fiber_ok:
            break
    report.add("fiber_partition", scope, fiber_ok, fiber_ce)

    # dimensions: maximal length in the J-minimal part of each double coset
    dim_ok, dim_ce = True, None
    class_of = {cls[0]: cls for cls in classes}
    for s in atlas.strata:
        for x in s.orbit:
            cls = class_of.get(x)
            if cls is None:
                dim_ok, dim_ce = False, f"missing class for {group.reduced_word(x)}"
                break
            brute_dim = max(w.length for w in cls if w in left_reps)
            if brute_dim != s.dim:
                dim_ok = False
                dim_ce = f"x={group.reduced_word(x)}: {brute_dim} != {s.dim}"
                break
        if not dim_ok:
            break
    report.add("dimensions", scope, dim_ok, dim_ce)

    # Howlett additivity through the independent formula
    howlett_ok, howlett_ce = True, None
    for s in atlas.strata:
        xu, dim = parabolic.x_upper(group, s.rep, J, K)
        if dim != parabolic.ell_JK(group, s.rep, J, K) or dim != s.dim:
            howlett_ok = False
            howlett_ce = f"x={group.reduced_word(s.rep)}"
            break
    report.add("howlett_lengths", scope, howlett_ok, howlett_ce)

    # closures from subword-oracle intervals on orbit members
    poset = atlas.orbit_poset
    n = len(poset)
    brute_leq = []  # brute_leq[b][a]: some member of orbit a is below rep b
    for rep in poset.reps:
        interval = brute_interval(group, group.reduced_word(rep))
        brute_leq.append([any(w in interval for w in orbit) for orbit in poset.orbits])
    closure_ce = next(
        (
            f"orbits {a} <= {b}"
            for b in range(n)
            for a in range(n)
            if brute_leq[b][a] != poset.leq(a, b)
        ),
        None,
    )
    report.add("closure_order", scope, closure_ce is None, closure_ce)

    # maximal stratum: unique, singleton orbit, full closure, top dimension
    maxima = [s for s in atlas.strata if s.is_maximal]
    max_ok = (
        len(maxima) == 1
        and len(maxima[0].orbit) == 1
        and maxima[0].dim == atlas.moduli_dim
        and sorted(maxima[0].closure) == list(range(len(atlas.strata)))
    )
    report.add("maximal_stratum", scope, max_ok)

    # single-fiber criterion against brute conjugation of J by the inverse
    single_ok, single_ce = True, None
    for s in atlas.strata:
        x = s.rep
        xinv = group.inverse(x)
        conj = {
            group.multiply(group.multiply(xinv, group.simple[j]), x) for j in J
        }
        brute_single = conj == {group.simple[k] for k in K}
        if brute_single != s.single_eo:
            single_ok = False
            single_ce = f"x={group.reduced_word(x)}"
            break
    report.add("single_fiber_criterion", scope, single_ok, single_ce)

    # antisymmetry of the subword-interval relation between orbits
    anti_ce = next(
        (
            f"orbits {a} and {b}"
            for b in range(n)
            for a in range(b)
            if brute_leq[b][a] and brute_leq[a][b]
        ),
        None,
    )
    report.add("orbit_order_antisymmetry", scope, anti_ce is None, anti_ce)

    return report


def _fiber_of(atlas: Atlas, x: WeylElement):
    from .atlas import eo_fiber

    return eo_fiber(atlas.group, x, atlas.J, atlas.K)
