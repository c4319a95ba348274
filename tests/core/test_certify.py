"""Tests for CERTIFY / VER-CERT (Fig. 3)."""

import random

import pytest

from repro.core.certify import (
    CertifiedMessage,
    _signed_bytes,
    certify,
    ver_cert,
    ver_cert_many,
    verify_certified_body,
)
from repro.core.keystore import KeyStore, LocalKeys, certificate_assertion
from repro.core.uls import build_uls_states
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


@pytest.fixture(scope="module")
def setup():
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=11)
    return public, states, keys


def make_msg(setup, message=("hi",), source=0, destination=1, round_w=7):
    _, _, keys = setup
    return certify(SCHEME, keys[source], message, source, destination, round_w)


def test_round_trip(setup):
    public, _, _ = setup
    msg = make_msg(setup)
    accepted = ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                        expected_unit=0, expected_round=7, raw=tuple(msg))
    assert accepted is not None
    assert accepted.message == ("hi",)
    assert accepted.source == 0


def test_reject_wrong_destination(setup):
    public, _, _ = setup
    msg = make_msg(setup, destination=1)
    assert ver_cert(SCHEME, public, receiver=2, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_wrong_alleged_source(setup):
    public, _, _ = setup
    msg = make_msg(setup, source=0)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=3,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_wrong_round_replay(setup):
    """A replayed message fails the w check (Definition 4's replay
    exclusion is enforced here at the protocol level)."""
    public, _, _ = setup
    msg = make_msg(setup, round_w=7)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=9, raw=tuple(msg)) is None


def test_reject_wrong_unit(setup):
    public, _, _ = setup
    msg = make_msg(setup)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=1, expected_round=7, raw=tuple(msg)) is None


def test_reject_tampered_message(setup):
    public, _, _ = setup
    msg = list(make_msg(setup))
    msg[0] = ("tampered",)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_signed_bytes_derive_from_own_fields(setup):
    msg = make_msg(setup, message=("own",), round_w=9)
    expected = _signed_bytes(msg.message, msg.source, msg.destination,
                             msg.unit, msg.round)
    assert msg.signed_bytes == expected
    assert CertifiedMessage(tuple(msg)).signed_bytes == expected


@pytest.mark.parametrize("wrap", [tuple, CertifiedMessage])
def test_tampered_copy_rejected_with_warm_state(setup, wrap):
    """After the honest message has been verified (warm verification
    cache, honest object's bytes computed), a copy with a changed message
    and the same signature is still rejected by every VER-CERT entry
    point — its bytes come from its own fields, never from the original."""
    public, _, _ = setup
    honest = make_msg(setup, message=("warm",), round_w=11)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=11, raw=honest) is honest
    assert ver_cert_many(SCHEME, public, 1, 0, 11, [(0, honest)]) == [honest]
    assert verify_certified_body(SCHEME, public, expected_unit=0,
                                 expected_round=11, raw=honest) is honest
    tampered = wrap((("tampered",),) + tuple(honest)[1:])
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=11, raw=tampered) is None
    assert ver_cert_many(SCHEME, public, 1, 0, 11, [(0, tampered)]) == [None]
    assert verify_certified_body(SCHEME, public, expected_unit=0,
                                 expected_round=11, raw=tampered) is None


def test_reject_swapped_certificate(setup):
    """Node 3's certificate does not certify node 0's key."""
    public, _, keys = setup
    msg = list(make_msg(setup))
    msg[7] = keys[3].certificate
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_foreign_key_with_own_signature(setup):
    """Adversary signs with its own fresh key and attaches it: the
    certificate check fails (the key is not certified for the source)."""
    public, _, keys = setup
    rng = random.Random(5)
    adversary_pair = SCHEME.generate(rng)
    fake_keys = LocalKeys(unit=0, keypair=adversary_pair,
                          certificate=keys[0].certificate)
    msg = certify(SCHEME, fake_keys, ("forged",), 0, 1, 7)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_phi_keys_cannot_certify():
    empty = LocalKeys(unit=3)
    assert certify(SCHEME, empty, ("m",), 0, 1, 5) is None


def test_malformed_raw_rejected(setup):
    public, _, _ = setup
    for raw in (None, "junk", (1, 2, 3), tuple(range(8))):
        assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                        expected_unit=0, expected_round=7, raw=raw) is None


def test_verify_certified_body_ignores_destination(setup):
    """The PA step-4 variant accepts a message addressed to someone else,
    but still pins author authenticity and time."""
    public, _, _ = setup
    msg = make_msg(setup, destination=3)
    accepted = verify_certified_body(SCHEME, public, expected_unit=0,
                                     expected_round=7, raw=tuple(msg))
    assert accepted is not None
    assert accepted.destination == 3
    # time still pinned
    assert verify_certified_body(SCHEME, public, expected_unit=0,
                                 expected_round=8, raw=tuple(msg)) is None


def test_certificate_assertion_format():
    assertion = certificate_assertion(2, 5, ("schnorr", 1, 2))
    assert assertion == ("cert", 2, 5, ("schnorr", 1, 2))


def test_keystore_lifecycle():
    rng = random.Random(1)
    store = KeyStore(SCHEME)
    assert store.unit == 0
    assert not store.can_sign()
    vk = store.generate_pending(1, rng)
    assert store.pending_key_repr() == SCHEME.key_repr(vk)
    # without a certificate the switch fails and keys become phi
    assert not store.install_pending(None)
    assert store.unit == 1
    assert not store.can_sign()
    assert store.history == [(1, "failed")]
    # next unit succeeds
    store.generate_pending(2, rng)
    assert store.install_pending("some-cert")
    assert store.unit == 2
    assert store.can_sign()
    assert store.history == [(1, "failed"), (2, "ok")]


def test_keystore_install_without_pending():
    store = KeyStore(SCHEME)
    assert not store.install_pending("cert")
    assert store.history == [(1, "failed")]
