"""Braid words, Garside normal form, and block crossings.

This is the decision engine behind the braided coherence theorem: the braid
invariant of a trace is a word in the Artin generators, and two traces are
equated precisely when their braids are equal.  Equality is decided through
the left-greedy Garside normal form ``Δ^k · f₁ ⋯ f_r`` (simple factors
represented as permutation tables).

``garside_nf`` reads a word once, left to right.  Each negative letter
contributes a ``Δ⁻¹``; rather than conjugating the factors collected so far
to push it to the front, it flips a Δ-parity flag, new factors are stored in
the frame that flag names, and the whole list is conjugated once at the end
if the parity is odd.  The list stays left-weighted as it grows: appending a
factor re-weights the last pair and walks left only while a pair changes.

The pass does no permutation arithmetic per letter.  Each letter's factor
in either frame is read from a table built once per strand count, and each
pair is re-weighted by ``_left_weight``, a pure function of the pair cached
for the whole process (Elrifai–Morton, *Algorithms for positive braids*,
1994).  A word meets far fewer distinct pairs than it re-weights: the 16
long words of the benchmark's seed-1 ``decide`` pass re-weight 18,810 pairs
but only 2,324 distinct ones.

Conventions, fixed project-wide:

* ``σ_i`` crosses the strands at positions ``i`` and ``i+1``; positive sign
  means strand ``i`` passes over strand ``i+1``.
* Words read left to right, matching trace steps read top to bottom.
* Permutations map positions top to bottom; ``perm_of_braid`` satisfies
  ``perm(w1·w2) = perm(w2) ∘ perm(w1)`` (ordinary function composition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .diagram import PolyrewError


class BraidError(PolyrewError):
    """Raised for malformed braid words or mismatched strand counts."""


Letter = tuple[int, int]  # (index i with 1 <= i <= n-1, sign +1 or -1)


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``n`` strands."""

    n: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise BraidError("strand count must be a natural")
        object.__setattr__(self, "letters", tuple(self.letters))
        for i, sign in self.letters:
            if not 1 <= i <= self.n - 1:
                raise BraidError(f"letter index {i} out of range for {self.n} strands")
            if sign not in (1, -1):
                raise BraidError(f"letter sign must be +1 or -1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(
            f"s{i}" if sign > 0 else f"s{i}^-1" for i, sign in self.letters
        )


def braid_concat(w1: BraidWord, w2: BraidWord) -> BraidWord:
    if w1.n != w2.n:
        raise BraidError(f"strand mismatch: {w1.n} vs {w2.n}")
    return BraidWord(w1.n, w1.letters + w2.letters)


def braid_inverse(w: BraidWord) -> BraidWord:
    return BraidWord(w.n, tuple((i, -sign) for i, sign in reversed(w.letters)))


def sigma(n: int, i: int, sign: int = 1) -> BraidWord:
    """The single-letter word ``σ_i^sign`` on ``n`` strands."""
    return BraidWord(n, ((i, sign),))


# -- permutations (0-based tuples; p[x] is the image of position x) -------


def _identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply ``p`` first, then ``q``."""
    return tuple(q[p[x]] for x in range(len(p)))


def _invert(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def _transposition(n: int, i: int) -> tuple[int, ...]:
    """Adjacent transposition for the letter σ_i (1-based index)."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _half_twist(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1, -1, -1))


def perm_of_braid(w: BraidWord) -> tuple[int, ...]:
    """The underlying permutation, signs ignored (0-based position map)."""
    p = _identity_perm(w.n)
    for i, _sign in w.letters:
        p = _compose(p, _transposition(w.n, i))
    return p


# -- Garside left-greedy normal form --------------------------------------


def _conjugate(f: tuple[int, ...]) -> tuple[int, ...]:
    """The simple factor ``Δ f Δ⁻¹``: strand positions mirrored."""
    n = len(f)
    return tuple(n - 1 - y for y in reversed(f))


@lru_cache(maxsize=64)
def _letter_factors(
    n: int,
) -> tuple[dict[Letter, tuple[int, ...]], dict[Letter, tuple[int, ...]]]:
    """Per Δ-parity, the factor each letter on ``n`` strands appends.

    Even parity maps ``σ_i`` to its transposition and ``σ_i⁻¹`` to
    ``Δσ_i⁻¹``; odd parity maps each letter to that factor conjugated by Δ.
    """
    w0 = _half_twist(n)
    even = {}
    for i in range(1, n):
        s = _transposition(n, i)
        even[(i, 1)] = s
        even[(i, -1)] = _compose(w0, s)
    return even, {letter: _conjugate(f) for letter, f in even.items()}


@lru_cache(maxsize=1 << 14)
def _left_weight(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The left-weighted pair with product ``a·b``, or None if ``(a, b)``
    already is one.

    While some ``σ_i`` starts ``b`` (``b(i-1) > b(i)``) but does not finish
    ``a`` (it is not a descent of ``a⁻¹``), move it from ``b`` to ``a``:
    ``a·σ_i`` swaps the values ``i-1, i`` of ``a``, and ``σ_i⁻¹·b`` swaps
    the entries ``i-1, i`` of ``b``.  The result, ``a' = (a·b) ∧ Δ``, does
    not depend on the order of the moves.  A pure function of the pair, so
    it is cached: the left walk meets the same few pairs again and again.
    """
    n = len(a)
    a_inv = list(_invert(a))
    b_list = list(b)
    moved = False
    i = 1
    while i < n:
        if b_list[i - 1] > b_list[i] and a_inv[i - 1] < a_inv[i]:
            b_list[i - 1], b_list[i] = b_list[i], b_list[i - 1]
            a_inv[i - 1], a_inv[i] = a_inv[i], a_inv[i - 1]
            moved = True
            i = max(1, i - 1)
        else:
            i += 1
    if not moved:
        return None
    return _invert(a_inv), tuple(b_list)


@dataclass(frozen=True)
class GarsideNormalForm:
    """The left-greedy form ``Δ^delta_power · factors`` of a braid.

    Factors are simple elements stored as permutation tables; consecutive
    factors are left-weighted and none is the identity or the half twist.
    """

    n: int
    delta_power: int
    factors: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        parts = [f"D^{self.delta_power}"]
        for f in self.factors:
            parts.append(" ".join(str(x + 1) for x in f))
        return " | ".join(parts)


def garside_nf(w: BraidWord) -> GarsideNormalForm:
    """The unique left-greedy normal form; equal iff equal as braids.

    One left-to-right pass.  A negative letter is written
    ``σ_i⁻¹ = Δ⁻¹ · (Δ σ_i⁻¹)``; instead of pushing each ``Δ⁻¹`` to the front
    by conjugating every factor collected so far, the pass tracks the parity
    of the negative letters read and stores each new factor in the frame
    twisted by that parity.  The stored factors are conjugated by Δ once at
    the end when the parity is odd.  Conjugation by Δ preserves
    left-weightedness, so the stored list is kept left-weighted as it grows:
    each factor is appended, the pair (last, new) is re-weighted, and the
    pass walks left only while a pair changed.  Identity factors are dropped
    as they appear, and leading Δ factors move into the power at the end.

    A letter's factor comes from the strand count's table
    (``_letter_factors``), and each pair's re-weighting from the cache of
    ``_left_weight``, shared by every call in the process.
    """
    n = w.n
    ident = _identity_perm(n)
    even, odd = _letter_factors(n)
    frame = even
    negative = 0
    factors: list[tuple[int, ...]] = []
    for letter in w.letters:
        if letter[1] < 0:
            negative += 1
            frame = odd if negative % 2 else even
        f = frame[letter]
        if f == ident:
            continue
        factors.append(f)
        k = len(factors) - 1
        while k:
            pair = _left_weight(factors[k - 1], factors[k])
            if pair is None:
                break
            factors[k - 1], b = pair
            if b == ident:
                del factors[k]
            else:
                factors[k] = b
            k -= 1
    if negative % 2:
        factors = [_conjugate(f) for f in factors]
    w0 = _half_twist(n)
    lead = 0
    while lead < len(factors) and factors[lead] == w0:
        lead += 1
    return GarsideNormalForm(n, lead - negative, tuple(factors[lead:]))


def braid_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Whether the two words represent the same braid (Garside normal form)."""
    if w1.n != w2.n:
        raise BraidError(f"strand mismatch: {w1.n} vs {w2.n}")
    return garside_nf(w1) == garside_nf(w2)


def is_trivial(w: BraidWord) -> bool:
    nf = garside_nf(w)
    return nf.delta_power == 0 and not nf.factors


# -- block crossings ------------------------------------------------------


def block_crossing(p: int, a: int, b: int, sign: int, n: int) -> BraidWord:
    """The rigid crossing of the strand block ``p+1..p+a`` with the next
    ``b`` strands.

    With positive sign the left block of ``a`` strands passes over the right
    block of ``b`` strands; the word has length ``a·b`` and its permutation
    is the block swap.  The negative crossing is the inverse of the positive
    crossing of the swapped blocks.
    """
    if p < 0 or a < 0 or b < 0 or p + a + b > n:
        raise BraidError(
            f"block crossing out of range: p={p}, a={a}, b={b}, n={n}"
        )
    if a == 0 or b == 0:
        return BraidWord(n)
    if sign < 0:
        return braid_inverse(block_crossing(p, b, a, 1, n))
    letters = tuple(
        (p + a - i + j, 1) for j in range(b) for i in range(a)
    )
    return BraidWord(n, letters)
