import pytest

from vkwave.indexing import EXPONENTS, JET_SIZE, MULTI_INDICES, SHIFT, idx


def test_slot_count_and_grading():
    assert JET_SIZE == 35
    orders = [len(m) for m in MULTI_INDICES]
    assert orders == sorted(orders)
    assert [orders.count(k) for k in range(5)] == [1, 3, 6, 10, 15]


def test_idx_is_subscript_order_insensitive():
    assert idx(1, 2) == idx(2, 1)
    assert idx(3, 1, 2) == idx(1, 2, 3)
    assert idx(3, 3, 1, 2) == idx(1, 2, 3, 3)


def test_all_slots_addressable_and_distinct():
    slots = {idx(*subs) for subs in MULTI_INDICES}
    assert slots == set(range(JET_SIZE))


def test_exponent_table_counts_subscripts():
    for slot, subs in enumerate(MULTI_INDICES):
        for ax in range(3):
            assert EXPONENTS[slot, ax] == sum(1 for s in subs if s == ax + 1)


def test_shift_table_adds_one_subscript():
    # an order-4 slot has no derivative in a 4-jet: it maps past the
    # last slot, to the NaN column a caller appends
    for a in (1, 2, 3):
        for slot, subs in enumerate(MULTI_INDICES):
            if len(subs) == 4:
                assert SHIFT[a - 1, slot] == JET_SIZE
            else:
                assert SHIFT[a - 1, slot] == idx(*subs, a)


def test_bad_subscripts_rejected():
    with pytest.raises(KeyError):
        idx(0)
    with pytest.raises(KeyError):
        idx(4)
    with pytest.raises(KeyError):
        idx(1, 1, 1, 1, 1)
