"""Oracles for the braid engine.

The library decides braid equality through the Garside normal form
(``polyrew.braid.garside_nf``).  Two oracles here share no code with it:

* Dehornoy handle reduction, a second word-problem solver: a word is trivial
  exactly when handle reduction empties it.
* ``uncached_garside_nf``, the earlier single-pass normal form that
  re-weights every pair it meets from scratch, with its own copies of the
  permutation helpers, so that a change to the module's helpers or to its
  pair cache cannot move the oracle with it.
"""

from __future__ import annotations

from polyrew.braid import BraidError, BraidWord, GarsideNormalForm, Letter


def _free_reduce(letters: tuple[Letter, ...]) -> list[Letter]:
    stack: list[Letter] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def handle_reduce(w: BraidWord, max_steps: int = 100_000) -> BraidWord:
    """Dehornoy handle reduction; the result is empty iff ``w`` is trivial.

    A ``σ_i``-handle is a factor ``σ_i^e v σ_i^{-e}`` whose interior ``v``
    contains no ``σ_i`` and no ``σ_{i-1}``.  Reducing it deletes the flanking
    letters and conjugates the interior's ``σ_{i+1}`` letters:
    ``σ_{i+1}^{±1} ↦ σ_{i+1}^{-e} σ_i^{±1} σ_{i+1}^{e}``.  We always reduce
    the handle with the leftmost end, which contains no nested handle; this
    strategy terminates (Dehornoy's theorem — the bound is a safety net).
    """
    letters = _free_reduce(w.letters)
    for _ in range(max_steps):
        handle = _first_handle(letters)
        if handle is None:
            return BraidWord(w.n, tuple(letters))
        p, q = handle
        i, e = letters[p]
        new_interior: list[Letter] = []
        for j, d in letters[p + 1: q]:
            if j == i + 1:
                new_interior.extend([(i + 1, -e), (i, d), (i + 1, e)])
            else:
                new_interior.append((j, d))
        letters = _free_reduce(
            tuple(letters[:p]) + tuple(new_interior) + tuple(letters[q + 1:])
        )
    raise BraidError("handle reduction exceeded its step budget")


def _first_handle(letters: list[Letter]) -> tuple[int, int] | None:
    """The handle with the leftmost end position, as an index pair (p, q)."""
    last_seen: dict[int, int] = {}
    for q, (i, sign) in enumerate(letters):
        p = last_seen.get(i)
        if p is not None and letters[p][1] == -sign:
            interior = letters[p + 1: q]
            if all(j != i - 1 for j, _ in interior):
                return p, q
        last_seen[i] = q
    return None


# -- the single-pass normal form without the pair cache ---------------------


def _compose(p, q):
    """Apply ``p`` first, then ``q``."""
    return tuple(q[x] for x in p)


def _invert(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def _transposition(n, i):
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _conjugate(f):
    """``Δ f Δ⁻¹``: strand positions mirrored."""
    n = len(f)
    return tuple(n - 1 - y for y in reversed(f))


def _reweight(a, b):
    """The left-weighted pair with product ``a·b``, or None if ``(a, b)``
    already is one: move each ``σ_i`` that starts ``b`` but does not finish
    ``a`` from ``b`` to ``a``."""
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


def uncached_garside_nf(w: BraidWord) -> GarsideNormalForm:
    """One left-to-right pass that builds each letter's factor and re-weights
    each pair as it meets it.

    A negative letter flips a Δ-parity flag instead of conjugating the
    factors collected so far; new factors are stored in the frame the flag
    names and the list is conjugated once at the end if the parity is odd.
    Each appended factor is re-weighted with its left neighbour, walking left
    while a pair changes.
    """
    n = w.n
    w0 = tuple(range(n - 1, -1, -1))
    ident = tuple(range(n))
    negative = 0
    factors = []
    for i, sign in w.letters:
        if sign > 0:
            f = _transposition(n, i)
        else:
            negative += 1
            f = _compose(w0, _transposition(n, i))
        if negative % 2:
            f = _conjugate(f)
        if f == ident:
            continue
        factors.append(f)
        k = len(factors) - 1
        while k > 0:
            pair = _reweight(factors[k - 1], factors[k])
            if pair is None:
                break
            factors[k - 1], factors[k] = pair
            if pair[1] == ident:
                del factors[k]
            k -= 1
    if negative % 2:
        factors = [_conjugate(f) for f in factors]
    lead = 0
    while lead < len(factors) and factors[lead] == w0:
        lead += 1
    return GarsideNormalForm(n, lead - negative, tuple(factors[lead:]))
