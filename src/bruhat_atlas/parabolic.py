"""Minimal coset/double-coset representatives and the Howlett length bookkeeping.

Notation: for subsets J, K of the node set, ``left_reps`` is the set of
elements with no left descent in J (shortest in their coset W_J w),
``double_reps`` the set shortest in W_J w W_K.  For a double representative x,
``induced_subset`` is K intersected with the x-conjugates of J, ``x_lower`` the
longest element of the corresponding relative coset set inside W_K, and
``x_upper = x * x_lower`` realizes the stratum dimension.

Conjugation by x is read off its root permutation: x s_k x^-1 = s_{x(alpha_k)}
(Humphreys, "Reflection Groups and Coxeter Groups", section 1.2), so
x s_k x^-1 is the simple reflection s_j exactly when x(alpha_k) = +-alpha_j,
and no group product is formed.

The representative sets are grown by ascents (:meth:`WeylGroup.ascend`):
``left_reps`` is ^J W, ``double_reps`` filters it by right descents, and the
fibers' ^{J_x}W_K is grown inside W_K.  None of them enumerates W.
"""

from __future__ import annotations

from .coxeter import WeylElement, WeylGroup
from .errors import ConsistencyError, InputError


def min_left_reps(group: WeylGroup, J) -> list[WeylElement]:
    """Shortest elements of the cosets W_J w: empty left-J descent set."""
    return group.ascend(range(group.n), J)


def min_double_reps(group: WeylGroup, J, K) -> list[WeylElement]:
    """Shortest elements of the double cosets W_J w W_K."""
    K = group.check_subset(K)
    return [w for w in min_left_reps(group, J) if not (w.right_descents & K)]


def _check_double_rep(group: WeylGroup, x: WeylElement, J, K):
    if (x.left_descents & J) or (x.right_descents & K):
        raise InputError(
            f"element {group.reduced_word(x)} is not a minimal double "
            f"representative for J={sorted(J)}, K={sorted(K)}"
        )


def induced_subset(group: WeylGroup, x: WeylElement, J, K) -> frozenset[int]:
    """{k in K : x s_k x^-1 is a simple reflection from J}.  Since x has no
    right descent in K, it sends each alpha_k (k in K) to a positive root, so
    this is {k in K : x(alpha_k) = alpha_j for some j in J}."""
    J = group.check_subset(J)
    K = group.check_subset(K)
    _check_double_rep(group, x, J, K)
    return frozenset(k for k in K if x.key[k] in J)


def x_lower(group: WeylGroup, x: WeylElement, J, K) -> WeylElement:
    """Longest element among the W_{J_x}-minimal representatives inside W_K."""
    J = group.check_subset(J)
    K = group.check_subset(K)
    Jx = induced_subset(group, x, J, K)
    w0Jx = group.longest_element(Jx)
    w0K = group.longest_element(K)
    out = group.multiply(w0Jx, w0K)
    if out.length != w0K.length - w0Jx.length:  # pragma: no cover
        raise ConsistencyError("length of w0(J_x) * w0(K) is not the difference")
    return out


def x_upper(group: WeylGroup, x: WeylElement, J, K) -> tuple[WeylElement, int]:
    """The longest element of the J-minimal part of W_J x W_K, with its length."""
    xl = x_lower(group, x, J, K)
    xu = group.multiply(x, xl)
    if xu.length != x.length + xl.length:  # pragma: no cover
        raise ConsistencyError(
            f"length additivity failed at {group.reduced_word(x)}: "
            f"{xu.length} != {x.length} + {xl.length}"
        )
    J = group.check_subset(J)
    if xu.left_descents & J:  # pragma: no cover
        raise ConsistencyError("maximal fiber element left the J-minimal set")
    return xu, xu.length


def ell_JK(group: WeylGroup, x: WeylElement, J, K) -> int:
    """length(x) + length(w0 of K) - length(w0 of the induced subset)."""
    J = group.check_subset(J)
    K = group.check_subset(K)
    Jx = induced_subset(group, x, J, K)
    return x.length + group.longest_element(K).length - group.longest_element(Jx).length


def relative_left_reps(group: WeylGroup, Jx, K) -> list[WeylElement]:
    """Elements of W_K with no left descent in Jx (Jx must sit inside K)."""
    return group.ascend(K, Jx)
