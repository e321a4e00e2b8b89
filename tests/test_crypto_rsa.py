"""RSA and prime generation tests."""

import pytest

from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rand import DeterministicRandom
from repro.crypto.rsa import SignatureError, generate_rsa_key


def test_small_primes_recognised():
    for p in (2, 3, 5, 7, 97, 101, 65537):
        assert is_probable_prime(p)
    for n in (0, 1, 4, 100, 65535):
        assert not is_probable_prime(n)


def test_generate_prime_bit_length():
    rng = DeterministicRandom("primes")
    for bits in (64, 128, 256):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_generate_prime_too_small():
    with pytest.raises(ValueError):
        generate_prime(4, DeterministicRandom(0))


def test_rsa_sign_verify_roundtrip():
    key = generate_rsa_key(512, DeterministicRandom("rsa1"))
    signature = key.sign(b"hello world")
    key.public_key.verify(b"hello world", signature)


def test_rsa_rejects_modified_message():
    key = generate_rsa_key(512, DeterministicRandom("rsa2"))
    signature = key.sign(b"hello")
    with pytest.raises(SignatureError):
        key.public_key.verify(b"h3110", signature)


def test_rsa_rejects_wrong_key():
    key_a = generate_rsa_key(512, DeterministicRandom("rsa3"))
    key_b = generate_rsa_key(512, DeterministicRandom("rsa4"))
    signature = key_a.sign(b"msg")
    with pytest.raises(SignatureError):
        key_b.public_key.verify(b"msg", signature)


def test_rsa_rejects_bad_signature_length():
    key = generate_rsa_key(512, DeterministicRandom("rsa5"))
    with pytest.raises(SignatureError):
        key.public_key.verify(b"msg", b"\x00" * 10)


def test_rsa_modulus_exact_bits():
    key = generate_rsa_key(768, DeterministicRandom("rsa6"))
    assert key.n.bit_length() == 768


def test_rsa_deterministic_from_seed():
    key_a = generate_rsa_key(512, DeterministicRandom("same-seed"))
    key_b = generate_rsa_key(512, DeterministicRandom("same-seed"))
    fields = ("n", "e", "d", "p", "q")
    assert [getattr(key_a, f) for f in fields] == [getattr(key_b, f) for f in fields]
