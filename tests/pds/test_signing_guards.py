"""Input guards inside the threshold signer.

``_share_at`` must reject evaluation points that are not positive ints —
``x = 0`` is the secret's own point, and a stringly-typed index off the
wire must never reach polynomial evaluation.  ``_qual_commitment`` must
reject qualified sets with duplicate dealers, which would double-count a
dealer's nonce contribution.  Wire input that would reach it in another
bad shape — a revealed commitment of the wrong degree, an empty claimed
qualified set — is dropped (the latter with blame) before it does.
"""

import random

import pytest

from repro.crypto.feldman import FeldmanCommitment, FeldmanDealer
from repro.crypto.group import named_group
from repro.crypto.shamir import Share
from repro.pds.keys import deal_initial_states
from repro.pds.threshold_schnorr import (
    ThresholdSigner,
    _Dealing,
    _Session,
    _session_id,
    _share_at,
)
from repro.pds.transport import DirectTransport

GROUP = named_group("toy64")


def test_share_at_accepts_positive_points():
    share = _share_at(1, 42)
    assert isinstance(share, Share)
    assert (share.x, share.value) == (1, 42)
    assert _share_at(7, 0).x == 7


@pytest.mark.parametrize("x", [0, -1, -7, "2", 2.0, None])
def test_share_at_rejects_non_positive_or_non_int_points(x):
    with pytest.raises(ValueError, match="share evaluation point"):
        _share_at(x, 42)


def _signer_with_session(seed=0, dealers=3):
    """Node 0's signer plus a session holding ``dealers`` degree-2 dealings
    (dealer ids 1..dealers); also returns the dealings and every state."""
    rng = random.Random(seed)
    public, states = deal_initial_states(GROUP, n=5, threshold=2, rng=rng)
    signer = ThresholdSigner(states[0], DirectTransport())
    session = _Session(message_bytes=b"m", start_round=0)
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    dealings = {}
    for d in range(1, dealers + 1):
        dealing = dealings[d] = dealer.deal(rng.randrange(GROUP.q), rng)
        session.dealings[d] = _Dealing(
            commitment=dealing.commitment,
            my_share_value=dealing.shares[0].value,
        )
    signer.sessions[_session_id(b"m")] = session
    return signer, session, dealings, states


def test_group_nonce_rejects_duplicate_dealers():
    signer, session, _, _ = _signer_with_session()
    with pytest.raises(ValueError, match="duplicate dealers"):
        signer._qual_commitment(session, (1, 1))
    with pytest.raises(ValueError, match="duplicate dealers"):
        signer._qual_commitment(session, (2, 3, 2))


def test_group_nonce_is_product_of_public_constants():
    signer, session, _, _ = _signer_with_session(seed=1)
    expected = GROUP.multiply(
        session.dealings[1].commitment.public_constant,
        session.dealings[2].commitment.public_constant,
    )
    assert signer._qual_commitment(session, (1, 2)).public_constant == expected
    # empty qualified set is the group identity (vacuous product)
    assert signer._qual_commitment(session, ()).public_constant == GROUP.identity


def _reveal(dealing, x):
    return (
        "ts-reveal",
        _session_id(b"m"),
        ((x, dealing.shares[x - 1].value),),
        dealing.commitment.elements,
    )


def test_reveal_of_wrong_degree_commitment_is_ignored():
    """``_on_reveal`` applies ``_on_deal``'s degree check: a threshold-2
    session never installs a degree-3 commitment, even one whose revealed
    sub-share verifies against it."""
    signer, session, _, _ = _signer_with_session(seed=2, dealers=0)
    rng = random.Random(7)
    wrong = FeldmanDealer(GROUP, n=5, threshold=3).deal(11, rng)
    assert wrong.commitment.verify_share(GROUP, wrong.shares[0])
    signer._on_reveal(None, 4, _reveal(wrong, signer.state.share_index))
    assert 4 not in session.dealings
    right = FeldmanDealer(GROUP, n=5, threshold=2).deal(11, rng)
    signer._on_reveal(None, 4, _reveal(right, signer.state.share_index))
    assert session.dealings[4].commitment == right.commitment


def test_empty_qual_partial_is_rejected_with_blame():
    """A partial claiming an empty qualified set would verify against
    ``R = identity`` as ``e·x_j`` alone; it is screened out, with blame,
    before any equation is evaluated."""
    signer, session, _, states = _signer_with_session(seed=3)
    sid = _session_id(b"m")
    public = signer.state.public
    challenge = signer.scheme.challenge(GROUP.identity, public.public_key, b"m")
    value = challenge * states[1].share.value % GROUP.q
    assert signer._verify_partials(sid, session, [(2, (), value)]) == [False]
    assert (sid, 2) in signer.rejected_partials


def _honest_partials(signer, session, dealings, states, qual):
    q = GROUP.q
    commitment_r = signer._qual_commitment(session, qual).public_constant
    challenge = signer.scheme.challenge(
        commitment_r, signer.state.public.public_key, b"m"
    )
    return [
        (
            j,
            qual,
            (sum(dealings[d].shares[j - 1].value for d in qual)
             + challenge * states[j - 1].share.value) % q,
        )
        for j in range(1, len(states) + 1)
    ]


def test_partial_verification_costs_two_share_images_per_partial(monkeypatch):
    """k partials under a QUAL of m dealers cost one combined nonce image
    and one key image each — not the per-dealer k·(m + 1)."""
    signer, session, dealings, states = _signer_with_session(seed=4, dealers=4)
    qual = (1, 2, 3, 4)
    items = _honest_partials(signer, session, dealings, states, qual)
    calls = []
    original = FeldmanCommitment.share_image

    def counting(self, group, x):
        calls.append(x)
        return original(self, group, x)

    monkeypatch.setattr(FeldmanCommitment, "share_image", counting)
    verdicts = signer._verify_partials(_session_id(b"m"), session, items)
    assert verdicts == [True] * len(items)
    k = len(items)
    assert len(calls) <= 2 * k + 1 < k * (len(qual) + 1)
