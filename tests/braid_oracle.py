"""Dehornoy handle reduction: an independent braid word-problem solver.

The library decides braid equality through the Garside normal form
(``polyrew.braid.garside_nf``).  This second solver shares no code with it,
so the tests use it as an oracle: a word is trivial exactly when handle
reduction empties it.
"""

from __future__ import annotations

from polyrew.braid import BraidError, BraidWord, Letter


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
