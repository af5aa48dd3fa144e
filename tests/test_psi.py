import dataclasses
import hashlib
import random

import numpy as np
import pytest

from psi_groups import ddh_small
from twosfgl.psi import (PsiBackend, PsiProtocolError, _check_received,
                         _expand_xmd, encode_id, psi_ddh, psi_plain)


def small():
    return ddh_small()


def assert_id_array(ids, expected):
    """``ids`` is the ascending, read-only int64 array of ``expected``."""
    assert ids.dtype == np.int64 and not ids.flags.writeable
    assert ids.tolist() == expected


def test_plain_is_set_intersection():
    assert_id_array(psi_plain([3, 1, 2, 3], np.array([4, 2, 3])), [2, 3])
    assert_id_array(psi_plain([], [1]), [])
    assert_id_array(psi_plain(range(5), [5, 4, 3]), [3, 4])


def assert_ddh_matches_plain(backend, trials):
    rng = np.random.default_rng(23)
    for trial in range(trials):
        universe = rng.choice(10**6, size=60, replace=False)
        a = universe[: rng.integers(0, 40)]
        b = universe[20: 20 + rng.integers(0, 40)]
        expected = sorted(set(a.tolist()) & set(b.tolist()))
        assert_id_array(psi_plain(a, b), expected)
        # unsorted ids with repeats give the same intersection
        res = psi_ddh(np.concatenate([a, a[:3]]), b, backend, seed=trial)
        assert_id_array(res.intersection_a, expected)
        assert_id_array(res.intersection_b, expected)


def test_ddh_matches_plain_on_random_sets():
    assert_ddh_matches_plain(small(), trials=25)


def test_ddh_in_the_2048_bit_group_matches_plain_on_random_sets():
    # the OpenSSL path; the small group's fake blinds with pow
    assert_ddh_matches_plain(PsiBackend(), trials=4)


def test_ddh_2048_bit_transcript_is_pinned():
    res = psi_ddh(range(0, 200, 3), range(0, 200, 2), PsiBackend(), seed=11)
    assert hashlib.sha256(res.transcript.payload_bytes()).hexdigest() == \
        "1e9506ca502b25a8fd2a10da3d3d9cc6fecfa1f28258430edfc7dd382dd97b89"
    assert_id_array(res.intersection_a, list(range(0, 200, 6)))


def test_exponentiator_matches_pow_at_the_secret_range_ends():
    backend = PsiBackend()
    p = backend.modulus
    elements = [backend.hash_to_group(ident) for ident in (0, 1, 2**40)]
    for secret in (1, 2, 2**256 - 1, backend.order - 1):
        assert backend.exponentiator(secret)(elements) == \
            [pow(e, secret, p) for e in elements]


def test_ddh_disjoint_and_identical_sets():
    backend = small()
    res = psi_ddh([1, 2], [3, 4], backend, seed=0)
    assert_id_array(res.intersection_a, [])
    res = psi_ddh([7, 5, 6], [5, 6, 7], backend, seed=0)
    assert_id_array(res.intersection_a, [5, 6, 7])


def test_ddh_empty_side():
    res = psi_ddh([], [1, 2], small(), seed=1)
    assert_id_array(res.intersection_a, [])
    assert_id_array(res.intersection_b, [])


def test_ddh_deterministic_transcript_per_seed():
    a, b = [10, 20, 30], [20, 40]
    r1 = psi_ddh(a, b, small(), seed=9)
    r2 = psi_ddh(a, b, small(), seed=9)
    assert r1.transcript.payload_bytes() == r2.transcript.payload_bytes()
    r3 = psi_ddh(a, b, small(), seed=10)
    assert r1.transcript.payload_bytes() != r3.transcript.payload_bytes()


def test_ddh_unseeded_secrets_still_correct():
    res = psi_ddh([1, 2, 3], [2, 3, 4], small())
    assert_id_array(res.intersection_a, [2, 3])


def test_ddh_requires_ddh_backend():
    # no silent fallback to the 62-bit test group
    with pytest.raises(TypeError, match="backend"):
        psi_ddh([1], [1])
    with pytest.raises(TypeError, match="backend"):
        psi_ddh([1], [1], seed=0)


def test_backend_is_only_a_ddh_group():
    assert [f.name for f in dataclasses.fields(PsiBackend)] == ["modulus", "order"]
    assert PsiBackend().modulus.bit_length() == 2048
    with pytest.raises(TypeError):
        PsiBackend(kind="ddh")


def test_ddh_backend_requires_safe_prime():
    # 11 divides 67 - 1, so 67 has a subgroup of order 11, but 67 != 2 * 11 + 1
    assert PsiBackend(modulus=23, order=11).order == 11
    with pytest.raises(ValueError, match="safe prime"):
        PsiBackend(modulus=67, order=11)
    with pytest.raises(ValueError, match="safe prime"):
        PsiBackend(modulus=PsiBackend().modulus, order=11)


def test_transcript_structure():
    backend = small()
    a, b = [1, 2, 3], [2, 3]
    res = psi_ddh(a, b, backend, seed=4, name_a="east", name_b="west")
    senders = [s for s, _ in res.transcript.records]
    assert senders == ["east", "west", "west", "east"]
    sizes = [len(p) for _, p in res.transcript.records]
    eb = backend.element_bytes
    assert sizes == [3 * eb, 2 * eb, 3 * eb, 2 * eb]


def test_transcript_never_contains_raw_ids():
    backend = small()
    ids_a = [3, 1_000_001, 77_777_777]
    ids_b = [3, 42, 77_777_777]
    res = psi_ddh(ids_a, ids_b, backend, seed=5)
    payload = res.transcript.payload_bytes()
    for ident in ids_a + ids_b:
        assert encode_id(ident) not in payload


def test_hash_to_group_lands_in_subgroup():
    for backend in (small(), PsiBackend()):
        points = [backend.hash_to_group(ident)
                  for ident in (0, 1, 7, 2**40, 999_999_999)]
        assert all(backend.in_subgroup(e) for e in points)
        assert len(set(points)) == len(points)


def test_in_subgroup_rejects_bad_elements():
    for backend in (small(), PsiBackend()):
        p = backend.modulus
        assert not backend.in_subgroup(0)
        assert not backend.in_subgroup(p)
        # p-1 has order 2, not q
        assert not backend.in_subgroup(p - 1)
        assert backend.in_subgroup(1)
        assert backend.in_subgroup(pow(12345, 2, p))


@pytest.mark.parametrize("backend", [ddh_small(), PsiBackend()],
                         ids=["small", "2048"])
def test_in_subgroup_matches_euler_criterion(backend):
    p, q = backend.modulus, backend.order
    edge_cases = [0, 1, p - 1, p]
    expected = [1 <= e < p and pow(e, q, p) == 1 for e in edge_cases]
    # the random elements' answers hold by construction: squares are in the
    # order-q subgroup, and a non-residue times a square is not
    non_residue = next(g for g in range(2, p) if pow(g, q, p) != 1)
    rng = random.Random(p.bit_length())
    elements = []
    for _ in range(300):
        square = pow(rng.randrange(1, p), 2, p)
        inside = rng.random() < 0.5
        elements.append(square if inside else non_residue * square % p)
        expected.append(inside)
    assert [backend.in_subgroup(e) for e in edge_cases + elements] == expected
    assert 100 < sum(expected) < 200  # both answers are exercised


def test_check_received_aborts_on_subgroup_violation():
    backend = small()
    good = backend.hash_to_group(5)
    with pytest.raises(PsiProtocolError, match="prime-order subgroup"):
        _check_received(backend, [good, backend.modulus - 1], "peer list")


def test_check_received_aborts_on_the_identity():
    # 1 passes the subgroup test, but OpenSSL refuses it as a peer value
    for backend in (small(), PsiBackend()):
        assert backend.in_subgroup(1)
        good = backend.hash_to_group(5)
        with pytest.raises(PsiProtocolError, match="identity element"):
            _check_received(backend, [good, 1], "peer list")


def test_check_received_aborts_on_duplicates():
    backend = small()
    e = backend.hash_to_group(5)
    with pytest.raises(PsiProtocolError, match="duplicate blinded"):
        _check_received(backend, [e, e], "peer list")


def test_encode_id_fixed_width_big_endian():
    assert encode_id(0) == b"\x00" * 8
    assert encode_id(1) == b"\x00" * 7 + b"\x01"
    assert encode_id(2**32) == b"\x00\x00\x00\x01\x00\x00\x00\x00"
    with pytest.raises(OverflowError):
        encode_id(2**64)


def test_expand_xmd_matches_rfc9380_vectors():
    dst = b"QUUX-V01-CS02-with-expander-SHA256-128"
    assert _expand_xmd(b"", dst, 32).hex() == \
        "68a985b87eb6b46952128911f2a4412bbc302a9d759667f87f7a21d803f07235"
    assert _expand_xmd(b"abc", dst, 32).hex() == \
        "d8ccab23b5985ccea865c6c97b6e5b8350e794e603b4b97902f53a8a0d605615"


def test_default_backend_group_sizes():
    big = PsiBackend()
    assert big.modulus.bit_length() == 2048
    assert big.order.bit_length() >= 255
    assert big.modulus == 2 * big.order + 1
    s = small()
    assert s.modulus == 2 * s.order + 1
    assert s.element_bytes == 8


def test_random_secret_seeded_is_deterministic():
    backend = small()
    assert backend.random_secret(7) == backend.random_secret(7)
    assert 1 <= backend.random_secret(7) < backend.order
    assert backend.random_secret(7) != backend.random_secret(8)


def test_random_secrets_span_256_bits():
    backend = PsiBackend()
    seeded = [backend.random_secret(seed) for seed in range(64)]
    assert all(1 <= s < 2**256 for s in seeded)
    assert any(s >= 2**250 for s in seeded)
    assert len(set(seeded)) == 64
    assert 1 <= backend.random_secret() < 2**256
