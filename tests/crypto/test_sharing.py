"""Tests for Shamir sharing and Feldman VSS."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.feldman import FeldmanDealer
from repro.crypto.field import PrimeField
from repro.crypto.group import named_group
from repro.crypto.shamir import Share, ShamirDealer, add_share_values, reconstruct_secret

GROUP = named_group("toy64")
FIELD = GROUP.scalar_field


def make_dealer(n=5, t=2):
    return ShamirDealer(FIELD, n, t)


def test_dealer_validation():
    with pytest.raises(ValueError):
        ShamirDealer(FIELD, 0, 0)
    with pytest.raises(ValueError):
        ShamirDealer(FIELD, 5, 5)
    with pytest.raises(ValueError):
        ShamirDealer(FIELD, 5, -1)
    with pytest.raises(ValueError):
        ShamirDealer(PrimeField(3), 5, 2)


@given(st.integers(min_value=0, max_value=FIELD.order - 1), st.integers(min_value=0))
@settings(max_examples=60)
def test_any_t_plus_1_shares_reconstruct(secret, seed):
    dealer = make_dealer()
    rng = random.Random(seed)
    _, shares = dealer.share(secret, rng)
    subset = rng.sample(shares, dealer.threshold + 1)
    assert reconstruct_secret(FIELD, subset) == secret


def test_t_shares_do_not_determine_secret():
    """With only t shares every candidate secret is equally consistent."""
    dealer = make_dealer(n=5, t=2)
    rng = random.Random(99)
    secret = 42
    _, shares = dealer.share(secret, rng)
    partial = shares[:2]  # only t shares
    # For any candidate secret s', there exists a degree-t polynomial through
    # (0, s') and the two observed shares; interpolation through these three
    # points is always well-defined, so the shares pin down nothing.
    for candidate in (0, 1, 42, 1000, FIELD.order - 1):
        points = [(0, candidate)] + [(s.x, s.value) for s in partial]
        assert FIELD.interpolate_at_zero(points) == candidate


def test_reconstruct_rejects_empty():
    with pytest.raises(ValueError):
        reconstruct_secret(FIELD, [])


def test_share_zero_reconstructs_zero():
    dealer = make_dealer()
    _, shares = dealer.share_zero(random.Random(5))
    assert reconstruct_secret(FIELD, shares[:3]) == 0


def test_add_share_values_refreshes_secret_invariant():
    """share(a) + share(0) is a fresh sharing of a — the refresh identity."""
    dealer = make_dealer()
    rng = random.Random(7)
    _, shares_a = dealer.share(1234, rng)
    _, shares_z = dealer.share_zero(rng)
    combined = [add_share_values(FIELD, a, z) for a, z in zip(shares_a, shares_z)]
    assert reconstruct_secret(FIELD, combined[:3]) == 1234
    # and the share values actually changed (overwhelming probability)
    assert any(a.value != c.value for a, c in zip(shares_a, combined))


def test_add_share_values_rejects_mismatched_x():
    with pytest.raises(ValueError):
        add_share_values(FIELD, Share(x=1, value=2), Share(x=2, value=3))
    with pytest.raises(ValueError):
        add_share_values(FIELD)


def test_feldman_shares_verify():
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    dealing = dealer.deal(777, random.Random(1))
    for share in dealing.shares:
        assert dealing.commitment.verify_share(GROUP, share)


def test_feldman_detects_corrupted_share():
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    dealing = dealer.deal(777, random.Random(2))
    bad = Share(x=dealing.shares[0].x, value=(dealing.shares[0].value + 1) % FIELD.order)
    assert not dealing.commitment.verify_share(GROUP, bad)


def test_feldman_public_constant_is_secret_image():
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    dealing = dealer.deal(321, random.Random(3))
    assert dealing.commitment.public_constant == GROUP.base_power(321)


def test_feldman_zero_dealing_detectable():
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    zero = dealer.deal_zero(random.Random(4))
    nonzero = dealer.deal(9, random.Random(4))
    assert dealer.verify_zero_dealing(zero.commitment)
    assert not dealer.verify_zero_dealing(nonzero.commitment)


def test_feldman_commitment_combine_matches_share_sum():
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    rng = random.Random(6)
    d1 = dealer.deal(100, rng)
    d2 = dealer.deal(200, rng)
    combined_commitment = d1.commitment.combine(GROUP, d2.commitment)
    for s1, s2 in zip(d1.shares, d2.shares):
        summed = add_share_values(FIELD, s1, s2)
        assert combined_commitment.verify_share(GROUP, summed)
    assert combined_commitment.public_constant == GROUP.base_power(300)


@given(
    seed=st.integers(min_value=0),
    dealers=st.integers(min_value=1, max_value=6),
    t=st.integers(min_value=1, max_value=4),
    x=st.integers(min_value=1, max_value=10_000),
    perf_on=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_feldman_combined_commitment_matches_per_dealer_products(
    seed, dealers, t, x, perf_on
):
    """The threshold signer's ``C_Q = Π_d C_d`` identity: the combined
    commitment's image at ``x`` and its constant term equal the products
    of the per-dealer images and constants, with the perf layer on or off."""
    import dataclasses

    from repro.perf import configure, perf_config

    rng = random.Random(seed)
    dealer = FeldmanDealer(GROUP, n=t + 2, threshold=t)
    commitments = [
        dealer.deal(rng.randrange(GROUP.q), rng).commitment for _ in range(dealers)
    ]
    saved = dataclasses.asdict(perf_config())
    configure(enabled=perf_on)
    try:
        combined = commitments[0]
        for commitment in commitments[1:]:
            combined = combined.combine(GROUP, commitment)
        image = constant = GROUP.identity
        for commitment in commitments:
            image = GROUP.multiply(image, commitment.share_image(GROUP, x))
            constant = GROUP.multiply(constant, commitment.public_constant)
        assert combined.share_image(GROUP, x) == image
        assert combined.public_constant == constant
    finally:
        configure(**saved)


def test_feldman_share_image_matches_base_power():
    dealer = FeldmanDealer(GROUP, n=4, threshold=1)
    dealing = dealer.deal(55, random.Random(8))
    for share in dealing.shares:
        assert dealing.commitment.share_image(GROUP, share.x) == GROUP.base_power(share.value)


def test_feldman_combine_rejects_mismatched_degree_bounds():
    """Combining a degree-t commitment with a shorter (or longer) vector
    must fail loudly: identity-padding a short adversarial dealing would
    silently lower the combined sharing's degree."""
    from repro.crypto.feldman import FeldmanCommitment

    t2 = FeldmanDealer(GROUP, n=5, threshold=2).deal(7, random.Random(10)).commitment
    t1 = FeldmanDealer(GROUP, n=5, threshold=1).deal(7, random.Random(11)).commitment
    with pytest.raises(ValueError, match="degree bound mismatch"):
        t2.combine(GROUP, t1)
    with pytest.raises(ValueError, match="degree bound mismatch"):
        t1.combine(GROUP, t2)
    # equal degrees still combine
    other = FeldmanDealer(GROUP, n=5, threshold=2).deal(8, random.Random(12)).commitment
    assert t2.combine(GROUP, other).degree_bound == 2
    # a truncated copy of a valid commitment is rejected, not padded
    truncated = FeldmanCommitment(elements=t2.elements[:-1])
    with pytest.raises(ValueError, match="degree bound mismatch"):
        t2.combine(GROUP, truncated)


def test_feldman_verify_zero_dealing_rejects_wrong_degree():
    """A zero constant term alone is not enough: the dealing must also
    have degree exactly t, or the refreshed sharing's reconstruction
    threshold would change."""
    from repro.crypto.feldman import FeldmanCommitment

    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    zero = dealer.deal_zero(random.Random(13)).commitment
    assert dealer.verify_zero_dealing(zero)
    padded = FeldmanCommitment(elements=zero.elements + (GROUP.identity,))
    truncated = FeldmanCommitment(elements=zero.elements[:-1])
    assert not dealer.verify_zero_dealing(padded)
    assert not dealer.verify_zero_dealing(truncated)
    # degree-t sharing of zero from a lower-threshold dealer: right length
    # but dealt by the wrong dealer parameters -> judged purely by shape
    low = FeldmanDealer(GROUP, n=5, threshold=1)
    assert not dealer.verify_zero_dealing(low.deal_zero(random.Random(14)).commitment)


def test_feldman_verify_zero_dealing_rejects_nonzero_constant():
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    nonzero = dealer.deal(1, random.Random(15)).commitment
    assert nonzero.degree_bound == dealer.threshold  # right shape ...
    assert not dealer.verify_zero_dealing(nonzero)   # ... wrong secret
