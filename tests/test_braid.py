"""Tests for the braid engine: Garside normal form, block crossings, and its
agreement with the handle-reduction oracle."""

import random

import pytest

from polyrew import braid
from polyrew.braid import (
    BraidError,
    BraidWord,
    GarsideNormalForm,
    block_crossing,
    braid_concat,
    braid_equal,
    braid_inverse,
    garside_nf,
    is_trivial,
    perm_of_braid,
    sigma,
)

from braid_oracle import handle_reduce, uncached_garside_nf


def word(n, *letters):
    return BraidWord(n, tuple(letters))


def random_word(rng, n=None, max_len=16):
    n = n or rng.randint(2, 5)
    length = rng.randint(0, max_len)
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(n, letters)


class TestBasics:
    def test_concat_inverse(self):
        w = word(3, (1, 1), (2, -1))
        assert braid_inverse(braid_inverse(w)) == w
        assert braid_concat(w, BraidWord(3)) == w
        assert str(w) == "s1 s2^-1"
        assert str(BraidWord(3)) == "e"

    def test_strand_mismatch(self):
        with pytest.raises(BraidError):
            braid_concat(BraidWord(2), BraidWord(3))

    def test_bad_letter(self):
        with pytest.raises(BraidError):
            word(2, (2, 1))

    def test_bad_sign(self):
        with pytest.raises(BraidError, match="sign must be"):
            word(2, (1, 2))

    def test_equal_strand_mismatch(self):
        with pytest.raises(BraidError, match="strand mismatch: 2 vs 3"):
            braid_equal(BraidWord(2), BraidWord(3))

    def test_zero_strands(self):
        # The braid group on 0 strands is trivial: only the empty word.
        e = BraidWord(0)
        assert is_trivial(e) and braid_equal(e, braid_inverse(e))
        assert garside_nf(e) == garside_nf(braid_concat(e, e))
        assert perm_of_braid(e) == ()
        for bad in ((0, 1), (1, 1)):
            with pytest.raises(BraidError):
                word(0, bad)
        with pytest.raises(BraidError):
            BraidWord(-1)


class TestPermutation:
    def test_sigma1(self):
        assert perm_of_braid(sigma(2, 1)) == (1, 0)

    def test_half_twist(self):
        w = word(3, (1, 1), (2, 1), (1, 1))
        assert perm_of_braid(w) == (2, 1, 0)

    def test_inverse_trivial_perm(self):
        rng = random.Random(3)
        for _ in range(50):
            w = random_word(rng)
            ww = braid_concat(w, braid_inverse(w))
            assert perm_of_braid(ww) == tuple(range(w.n))

    def test_homomorphism(self):
        # perm(w1 . w2) = perm(w2) o perm(w1) under our position-map
        # convention.
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 5)
            w1, w2 = random_word(rng, n), random_word(rng, n)
            p = perm_of_braid(braid_concat(w1, w2))
            p1, p2 = perm_of_braid(w1), perm_of_braid(w2)
            assert p == tuple(p2[p1[x]] for x in range(n))


class TestGarside:
    def test_braid_relation(self):
        w1 = word(3, (1, 1), (2, 1), (1, 1))
        w2 = word(3, (2, 1), (1, 1), (2, 1))
        assert garside_nf(w1) == garside_nf(w2)
        # Both are the half twist itself.
        nf = garside_nf(w1)
        assert nf.delta_power == 1
        assert nf.factors == ()

    def test_free_cancel(self):
        w = word(3, (1, 1), (1, -1))
        nf = garside_nf(w)
        assert nf.delta_power == 0 and nf.factors == ()
        assert is_trivial(w)

    def test_sigma_vs_inverse(self):
        assert not braid_equal(sigma(2, 1), sigma(2, 1, -1))

    def test_random_inverses_trivial(self):
        rng = random.Random(20260824)
        for _ in range(200):
            w = random_word(rng)
            assert is_trivial(braid_concat(w, braid_inverse(w)))

    def test_far_commutation(self):
        w1 = word(4, (1, 1), (3, 1), (1, -1))
        w2 = word(4, (3, 1))
        assert braid_equal(w1, w2)

    def test_classifier_stability_under_rewrites(self):
        """Randomly rewriting a word with free cancellation, far
        commutation, and the braid relation never changes its normal
        form."""
        rng = random.Random(99)
        for _ in range(100):
            w = random_word(rng, n=4, max_len=12)
            target = garside_nf(w)
            letters = list(w.letters)
            for _ in range(rng.randint(1, 10)):
                k = rng.randrange(len(letters) + 1)
                choice = rng.random()
                if choice < 0.4:
                    # insert a cancelling pair
                    i = rng.randint(1, 3)
                    s = rng.choice((1, -1))
                    letters[k:k] = [(i, s), (i, -s)]
                elif choice < 0.7 and k + 1 < len(letters):
                    (i, s), (j, t) = letters[k], letters[k + 1]
                    if abs(i - j) >= 2:
                        letters[k], letters[k + 1] = (j, t), (i, s)
                elif k + 2 < len(letters):
                    (i, s), (j, t), (l, u) = letters[k: k + 3]
                    if s == t == u == 1 and i == l and abs(i - j) == 1:
                        letters[k: k + 3] = [(j, 1), (i, 1), (j, 1)]
            assert garside_nf(BraidWord(4, tuple(letters))) == target


class TestHandleReduction:
    def test_relation_conjugate(self):
        w = word(3, (1, 1), (2, 1), (1, 1), (2, -1), (1, -1), (2, -1))
        assert handle_reduce(w).letters == ()

    def test_irreducible(self):
        assert handle_reduce(sigma(2, 1)) == sigma(2, 1)

    def test_random_inverses(self):
        rng = random.Random(7)
        for _ in range(200):
            w = random_word(rng)
            assert handle_reduce(braid_concat(w, braid_inverse(w))).letters == ()

    def test_agreement_with_garside(self):
        rng = random.Random(12345)
        for _ in range(500):
            n = rng.randint(2, 5)
            w1, w2 = random_word(rng, n), random_word(rng, n)
            garside = braid_equal(w1, w2)
            dehornoy = (
                handle_reduce(braid_concat(w1, braid_inverse(w2))).letters == ()
            )
            assert garside == dehornoy


class TestPairCache:
    """``garside_nf`` reads each pair's left-weighting from a cache that
    outlives the call; what it returns must not depend on what is cached."""

    def test_cold_and_warm_cache_agree(self):
        rng = random.Random(1717)
        words = [random_word(rng, n=rng.randint(2, 7), max_len=40)
                 for _ in range(200)]
        cold = []
        for w in words:
            braid._left_weight.cache_clear()
            cold.append(garside_nf(w))
            assert garside_nf(w) == cold[-1], str(w)
        # Warm from every other word too, in a different order.
        for w, nf in reversed(list(zip(words, cold))):
            assert garside_nf(w) == nf, str(w)
        assert braid._left_weight.cache_info().hits > 0

    @pytest.mark.parametrize("n", [8, 9])
    def test_many_strands_agree_with_handle_reduction(self, n):
        # Half the pairs are equal by construction (a cancelling pair and a
        # far commutation inserted), half differ in one letter's sign.
        rng = random.Random(n)
        braid._left_weight.cache_clear()
        for k in range(150):
            w1 = random_word(rng, n=n, max_len=24)
            letters = list(w1.letters)
            i = rng.randint(1, n - 1)
            s = rng.choice((1, -1))
            j = rng.choice([x for x in range(1, n) if abs(x - i) >= 2])
            p = rng.randint(0, len(letters))
            letters[p:p] = [(i, s), (j, 1), (i, -s), (j, -1)]
            if k % 2:
                q = rng.randrange(len(letters))
                letters[q] = (letters[q][0], -letters[q][1])
            w2 = BraidWord(n, tuple(letters))
            dehornoy = (
                handle_reduce(braid_concat(w1, braid_inverse(w2))).letters == ()
            )
            assert braid_equal(w1, w2) == dehornoy == (k % 2 == 0), str(w1)
            assert garside_nf(w2) == uncached_garside_nf(w2), str(w2)
            assert is_trivial(braid_concat(w2, braid_inverse(w2)))


class TestBlockCrossing:
    def test_single(self):
        assert block_crossing(0, 1, 1, 1, 2) == sigma(2, 1)

    def test_empty_block(self):
        assert block_crossing(1, 0, 2, 1, 4) == BraidWord(4)
        assert block_crossing(1, 2, 0, -1, 4) == BraidWord(4)

    def test_permutation_is_block_swap(self):
        w = block_crossing(1, 2, 1, 1, 4)
        assert len(w) == 2
        # positions (1,2,3,4) -> (1,4,2,3): strand at position 4 jumps over
        # the block at positions 2-3.
        perm = perm_of_braid(w)
        assert perm == (0, 2, 3, 1)

    def test_block_swap_general(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 6)
            a = rng.randint(0, n)
            b = rng.randint(0, n - a)
            p = rng.randint(0, n - a - b)
            w = block_crossing(p, a, b, 1, n)
            assert len(w) == a * b
            perm = perm_of_braid(w)
            expected = list(range(n))
            for x in range(a):
                expected[p + x] = p + b + x
            for x in range(b):
                expected[p + a + x] = p + x
            assert perm == tuple(expected)

    def test_cross_and_cross_back(self):
        for (p, a, b, n) in [(0, 1, 1, 2), (0, 2, 1, 3), (1, 2, 2, 5)]:
            fwd = block_crossing(p, a, b, 1, n)
            back = block_crossing(p, b, a, -1, n)
            assert is_trivial(braid_concat(fwd, back))

    def test_range_violation(self):
        with pytest.raises(BraidError):
            block_crossing(1, 2, 2, 1, 4)


# -- the sweep-based normal form, kept as an oracle -------------------------
#
# A self-contained copy of the earlier engine, permutation helpers included,
# so that a change to the module's helpers cannot move the oracle with it.


def _compose(p, q):
    return tuple([q[x] for x in p])


def _invert(p):
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def _transposition(n, i):
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _descents(p):
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _sweep_garside_nf(w):
    """The earlier ``garside_nf``: conjugate every collected factor by Δ for
    each negative letter, then sweep adjacent pairs to a fixpoint."""
    n = w.n
    w0 = tuple(range(n - 1, -1, -1))
    power = 0
    factors = []
    for i, sign in w.letters:
        s = _transposition(n, i)
        if sign > 0:
            factors.append(s)
        else:
            factors = [_compose(_compose(w0, f), w0) for f in factors]
            power -= 1
            factors.append(_compose(w0, s))
    factors = _sweep_left_weight(n, factors)
    while factors and factors[0] == w0:
        power += 1
        factors.pop(0)
    return GarsideNormalForm(n, power, tuple(factors))


def _sweep_left_weight(n, factors):
    """Left-weight adjacent pairs to a fixpoint.

    The leftmost pair waiting is checked next, and a pair waits again only
    when a neighbour changed; this reaches the same fixpoint as sweeping
    every pair until none changes.  A factor emptied to the identity is
    dropped at once, and its neighbours become a pair.
    """
    ident = tuple(range(n))
    factors = [f for f in factors if f != ident]
    pending = set(range(len(factors) - 1))
    while pending:
        k = min(pending)
        pending.discard(k)
        a, b = factors[k], factors[k + 1]
        moved = False
        while True:
            descents = _descents(b) - _descents(_invert(a))
            if not descents:
                break
            i = min(descents)
            s = _transposition(n, i)
            a = _compose(a, s)
            b = _compose(s, b)
            moved = True
        if not moved:
            continue
        factors[k], factors[k + 1] = a, b
        if b == ident:
            del factors[k + 1]
            pending = {j - 1 if j > k else j for j in pending if j != k + 1}
            near = (k - 1, k)
        else:
            near = (k - 1, k + 1)
        pending.update(j for j in near if 0 <= j < len(factors) - 1)
    return factors


class TestIncrementalGarsideOracle:
    """``garside_nf`` returns exactly the normal form of the sweep-based
    engine and of the uncached single-pass one."""

    def test_matches_sweep_on_random_words(self):
        # One word in four is all-negative and one all-positive; the rest
        # mix signs.  On one strand every word is empty.
        rng = random.Random(20261018)
        seen_n = set()
        for k in range(2000):
            n = rng.randint(1, 7)
            signs = ((-1,), (1,), (1, -1), (1, -1))[k % 4]
            letters = tuple(
                (rng.randint(1, n - 1), rng.choice(signs))
                for _ in range(rng.randint(0, 60) if n > 1 else 0)
            )
            w = BraidWord(n, letters)
            seen_n.add(n)
            nf = garside_nf(w)
            assert nf == _sweep_garside_nf(w), str(w)
            assert nf == uncached_garside_nf(w), str(w)
        assert seen_n == set(range(1, 8))

    def test_two_strands(self):
        # On two strands Δ·σ₁⁻¹ is the identity factor: the form of any word
        # is Δ^(exponent sum) with no factors.
        rng = random.Random(2)
        for _ in range(300):
            w = random_word(rng, n=2, max_len=40)
            expected = sum(sign for _, sign in w.letters)
            nf = garside_nf(w)
            assert nf == _sweep_garside_nf(w) == uncached_garside_nf(w)
            assert (nf.delta_power, nf.factors) == (expected, ())
