"""Derived RNG streams: reproducible, key-separated, order-free."""

from fedtrace.seeding import (
    DOMAIN_SAMPLING,
    ROUND_SAMPLING,
    derive_rng,
)


def test_same_keys_same_stream():
    a = derive_rng(7, ROUND_SAMPLING, 3).random(8)
    b = derive_rng(7, ROUND_SAMPLING, 3).random(8)
    assert (a == b).all()


def test_different_keys_different_streams():
    base = derive_rng(7, ROUND_SAMPLING, 3).random(8)
    assert not (derive_rng(8, ROUND_SAMPLING, 3).random(8) == base).all()
    assert not (derive_rng(7, DOMAIN_SAMPLING, 3).random(8) == base).all()
    assert not (derive_rng(7, ROUND_SAMPLING, 4).random(8) == base).all()


def test_stream_independent_of_consumption_order():
    # deriving after heavy use of a sibling stream changes nothing
    sibling = derive_rng(7, ROUND_SAMPLING, 1)
    sibling.random(1000)
    assert (derive_rng(7, ROUND_SAMPLING, 2).random(4)
            == derive_rng(7, ROUND_SAMPLING, 2).random(4)).all()
