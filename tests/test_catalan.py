import pytest

from tricensus.catalan import (
    catalan,
    check_product_inequality,
    polygon_count_recurrence_holds,
    polygon_triangulation_count,
)

from oracles import catalan_by_convolution


def test_first_catalan_numbers():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_catalan_10_against_convolution_oracle():
    expected = catalan_by_convolution(10)
    assert expected == 16796
    assert catalan(10) == expected


def test_catalan_negative_rejected():
    with pytest.raises(ValueError):
        catalan(-1)
    with pytest.raises(ValueError, match="catalan is defined for n >= 0"):
        catalan_by_convolution(-1)


def test_polygon_counts():
    assert polygon_triangulation_count(2) == 1
    assert polygon_triangulation_count(5) == 5
    assert polygon_triangulation_count(6) == 14
    with pytest.raises(ValueError):
        polygon_triangulation_count(1)


def test_recurrence_small_cases():
    # n=3: the single term is 1*1; n=4: 1+1 = 2; n=6: 5+2+2+5 = 14
    assert polygon_count_recurrence_holds(3)
    assert polygon_count_recurrence_holds(4)
    assert polygon_count_recurrence_holds(6)
    with pytest.raises(ValueError, match="the recurrence applies for n >= 3"):
        polygon_count_recurrence_holds(2)


def test_recurrence_sweep():
    assert all(polygon_count_recurrence_holds(n) for n in range(3, 31))


def test_convolution_agrees_with_closed_form():
    for n in range(201):
        assert catalan(n) == catalan_by_convolution(n)


def test_product_inequality_examples():
    assert check_product_inequality([4, 4]) == (4, 14, True)
    assert check_product_inequality([3, 3, 3]) == (1, 5, True)
    for n in (2, 5, 9, 13):
        lhs, rhs, holds = check_product_inequality([2, n])
        assert holds and lhs == rhs == polygon_triangulation_count(n)


def test_product_inequality_validation():
    with pytest.raises(ValueError):
        check_product_inequality([])
    with pytest.raises(ValueError):
        check_product_inequality([4, 1])


def test_product_inequality_order_invariant():
    assert check_product_inequality([3, 5, 4]) == check_product_inequality([5, 4, 3])
