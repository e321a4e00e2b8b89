"""Certificate, PKI and hostname matching tests."""

import pytest

from repro.crypto.rand import DeterministicRandom
from repro.crypto.rsa import generate_rsa_key
from repro.tls.certificates import (
    Certificate,
    CertificateAuthority,
    _seeded_key,
    hostname_matches,
    make_self_signed,
    verify_chain,
)


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority(seed="cert-tests", key_bits=512)


def test_issue_and_verify(ca):
    cert, _key = ca.issue("site.example", ["site.example", "*.site.example"], key_bits=512)
    assert verify_chain([cert, ca.root], [ca.root], server_name="site.example") == []
    assert verify_chain([cert, ca.root], [ca.root], server_name="www.site.example") == []


def test_hostname_mismatch_reported(ca):
    cert, _key = ca.issue("a.example", ["a.example"], key_bits=512)
    errors = verify_chain([cert, ca.root], [ca.root], server_name="b.example")
    assert any("hostname" in e for e in errors)


def test_untrusted_issuer(ca):
    other = CertificateAuthority(name="Other CA", seed="other", key_bits=512)
    cert, _key = other.issue("x.example", ["x.example"], key_bits=512)
    errors = verify_chain([cert], [ca.root], server_name="x.example")
    assert any("not trusted" in e for e in errors)


def test_tampered_signature_detected(ca):
    cert, _key = ca.issue("t.example", ["t.example"], key_bits=512)
    tampered = Certificate(**{**cert.__dict__, "subject": "evil.example"})
    errors = verify_chain([tampered, ca.root], [ca.root])
    assert any("bad signature" in e for e in errors)


def test_self_signed_detected():
    cert, _key = make_self_signed("standalone.example", key_bits=512)
    assert cert.self_signed
    errors = verify_chain([cert], [], server_name="standalone.example")
    assert any("self-signed" in e for e in errors)


def test_expiry_window(ca):
    cert, _key = ca.issue("w.example", ["w.example"], not_before=10, not_after=12, key_bits=512)
    assert verify_chain([cert, ca.root], [ca.root], week=11) == []
    errors = verify_chain([cert, ca.root], [ca.root], week=20)
    assert any("expired" in e for e in errors)


def test_encode_decode_roundtrip(ca):
    cert, _key = ca.issue("rt.example", ["rt.example", "alt.example"], key_bits=512)
    decoded = Certificate.decode(cert.encode())
    assert decoded == cert
    assert decoded.fingerprint() == cert.fingerprint()


def test_fingerprint_unique(ca):
    cert_a, _ = ca.issue("fa.example", ["fa.example"], key_bits=512)
    cert_b, _ = ca.issue("fb.example", ["fb.example"], key_bits=512)
    assert cert_a.fingerprint() != cert_b.fingerprint()


# -- seed-keyed key memo --------------------------------------------------------


def _key_fields(key):
    return (key.n, key.e, key.d, key.p, key.q)


@pytest.mark.parametrize("bits", [512, 1024])
@pytest.mark.parametrize("seed", ["memo-a", "memo-b", "key-google", "ca-7"])
def test_seeded_key_equals_fresh_key(bits, seed):
    fresh = generate_rsa_key(bits, DeterministicRandom(seed))
    assert _key_fields(_seeded_key(bits, seed)) == _key_fields(fresh)


def test_ca_output_identical_with_memo_cold_and_warm():
    def issue_all():
        ca = CertificateAuthority(seed="memo-ca", key_bits=512)
        leaves = [
            ca.issue(f"m{i}.example", [f"m{i}.example"], key_bits=512, key_seed="memo-leaf")[0]
            for i in range(6)
        ]
        self_signed, _ = make_self_signed("memo.invalid", key_bits=512, seed="memo-self")
        return ca.root.encode(), [cert.encode() for cert in leaves], self_signed.encode()

    _seeded_key.cache_clear()
    cold = issue_all()
    misses = _seeded_key.cache_info().misses
    warm = issue_all()
    assert _seeded_key.cache_info().misses == misses
    assert warm == cold


def test_ca_serials_match_the_keygen_advanced_generator():
    # A memo hit skips keygen, so the CA's serials must not depend on the
    # generator state keygen advances: child() reads only the seed.
    rng = DeterministicRandom("memo-serials")
    generate_rsa_key(512, rng)
    serials = rng.child("serials")
    ca = CertificateAuthority(seed="memo-serials", key_bits=512)
    expected = [serials.getrandbits(63) for _ in range(5)]
    issued = [ca.root.serial] + [
        ca.issue(f"s{i}.example", [f"s{i}.example"], key_bits=512)[0].serial for i in range(4)
    ]
    assert issued == expected


@pytest.mark.parametrize(
    "pattern,hostname,matches",
    [
        ("example.com", "example.com", True),
        ("example.com", "EXAMPLE.COM", True),
        ("example.com", "www.example.com", False),
        ("*.example.com", "www.example.com", True),
        ("*.example.com", "example.com", False),
        ("*.example.com", "a.b.example.com", False),
        ("*.com", "foo.com", True),
        ("*.com", "a.b.com", False),
        ("*.", "anything", False),
    ],
)
def test_hostname_matching(pattern, hostname, matches):
    assert hostname_matches(pattern, hostname) is matches
