"""Minimal coset/double-coset representatives and the Howlett length bookkeeping.

Notation: for subsets J, K of the node set, ``left_reps`` is the set of
elements with no left descent in J (shortest in their coset W_J w),
``double_reps`` the set shortest in W_J w W_K.  For a double representative x,
:meth:`WeylGroup.induced_subset` is K intersected with the x-conjugates of J,
and ``x_upper = x * w0(J_x) * w0(K)`` is the longest element of the fiber
x * ^{J_x}W_K, which :func:`atlas.build_atlas` checks against ``fiber[-1]``.
``x_upper`` and ``ell_JK`` take J_x as computed once by the caller.

Conjugation by x is read off its root permutation: x s_k x^-1 = s_{x(alpha_k)}
(Humphreys, "Reflection Groups and Coxeter Groups", section 1.2), so
x s_k x^-1 is the simple reflection s_j exactly when x(alpha_k) = +-alpha_j,
and no group product is formed.

The representative sets are grown by ascents (:meth:`WeylGroup.ascend`):
``left_reps`` is ^J W, ``double_reps`` filters it by right descents, and a
fiber x * ^{J_x}W_K is grown from x inside ^J W.  None of them enumerates W.
"""

from __future__ import annotations

from .coxeter import WeylElement, WeylGroup


def min_left_reps(group: WeylGroup, J) -> list[WeylElement]:
    """Shortest elements of the cosets W_J w: empty left-J descent set."""
    return group.ascend(range(group.n), J)


def min_double_reps(group: WeylGroup, J, K) -> list[WeylElement]:
    """Shortest elements of the double cosets W_J w W_K."""
    K, N = group.check_subset(K), group.N
    # k is a right descent of w exactly when w(alpha_k) is negative
    return [w for w in min_left_reps(group, J) if all(w.key[k] < N for k in K)]


def x_upper(group: WeylGroup, x: WeylElement, Jx, K) -> tuple[WeylElement, int]:
    """x * w0(J_x) * w0(K), the longest element of x's fiber, with its length;
    ``Jx`` is ``group.induced_subset(x, J, K)``."""
    w0 = group.longest_element
    xu = group.multiply(x, group.multiply(w0(Jx), w0(K)))
    return xu, xu.length


def ell_JK(group: WeylGroup, x: WeylElement, Jx, K) -> int:
    """length(x) + length(w0 of K) - length(w0 of J_x), for
    ``Jx = group.induced_subset(x, J, K)``."""
    return x.length + group.longest_element(K).length - group.longest_element(Jx).length

