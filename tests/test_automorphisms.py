"""Tests for unit groups mod n, their fixing subgroups, and the image of the
(at most degree-2) Galois action on roots of unity.
"""

import pytest

from cyclokit import (
    RATIONAL,
    PreconditionError,
    ResidueClass,
    euler_phi,
    finite_field,
    fixing_subgroup,
    galois_image,
    is_quadratic,
    n_F,
    unit_group,
    yogh,
)

from conftest import divisors, prime_powers


Q = RATIONAL
F5 = finite_field(5)
F23 = finite_field(23)


# ---------------------------------------------------------------------------
# unit_group
# ---------------------------------------------------------------------------


def test_unit_group_frozen_values():
    assert [j.value for j in unit_group(12)] == [1, 5, 7, 11]
    assert [j.value for j in unit_group(8)] == [1, 3, 5, 7]
    assert unit_group(1) == (ResidueClass(0, 1),)


def test_unit_group_order_is_phi():
    for n in range(1, 201):
        g = unit_group(n)
        assert len(g) == euler_phi(n)
        assert {j.modulus for j in g} == {n}


def test_unit_group_closed_under_multiplication():
    for n in (1, 2, 8, 12, 15, 16, 24, 36):
        g = unit_group(n)
        elems = {j.value for j in g}
        for a in elems:
            for b in elems:
                assert (a * b) % n in elems or n == 1


def test_unit_group_membership():
    g = unit_group(12)
    assert ResidueClass(5, 12) in g
    assert ResidueClass(6, 12) not in g


# ---------------------------------------------------------------------------
# fixing_subgroup
# ---------------------------------------------------------------------------


def test_fixing_subgroup_frozen_values():
    assert [j.value for j in fixing_subgroup(12, 4)] == [1, 5]
    assert fixing_subgroup(8, 8) == (ResidueClass(1, 8),)
    for n in (1, 6, 12, 15):
        assert fixing_subgroup(n, 1) == unit_group(n)


def test_fixing_subgroup_requires_divisor():
    with pytest.raises(ValueError):
        fixing_subgroup(12, 5)


def test_fixing_subgroup_cardinality_formula():
    # |U_n(m)| = phi(n)/phi(m) for every m | n, n <= 200.
    for n in range(1, 201):
        for m in divisors(n):
            assert len(fixing_subgroup(n, m)) == euler_phi(n) // euler_phi(m)


def test_fixing_subgroup_is_a_subgroup():
    for n in (8, 12, 16, 24, 60):
        for m in divisors(n):
            elems = {j.value for j in fixing_subgroup(n, m)}
            assert 1 % n in elems or (n == 1 and 0 in elems)
            for a in elems:
                for b in elems:
                    assert (a * b) % n in elems
                assert pow(a, -1, n) in elems if n > 1 else True


def test_reduction_map_is_surjective_with_fixing_kernel():
    # U_n -> U_m (reduction mod m) hits every class, and its kernel is
    # exactly U_n(m).
    for n in range(1, 201):
        for m in divisors(n):
            image = {j.value % m for j in unit_group(n)}
            assert image == {j.value for j in unit_group(m)}
            kernel = {j.value for j in unit_group(n) if j.value % m == 1 % m}
            assert kernel == {j.value for j in fixing_subgroup(n, m)}


# ---------------------------------------------------------------------------
# galois_image
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, n", [(Q, 1), (Q, 3), (Q, 4), (Q, 6), (F5, 4), (F5, 8),
                                      (F5, 24), (F23, 16), (F23, 48), (F23, 528)])
def test_every_subgroup_of_the_units_is_an_ascending_tuple_of_residues(field, n):
    assert len(unit_group(n)) == euler_phi(n)
    groups = [unit_group(n), galois_image(field, n)]
    groups += [fixing_subgroup(n, m) for m in divisors(n)]
    for group in groups:
        assert type(group) is tuple and list(group) == sorted(group)
        assert all(type(j) is ResidueClass and j.modulus == n for j in group)


def test_galois_image_frozen_values():
    assert [j.value for j in galois_image(F5, 8)] == [1, 5]
    assert [j.value for j in galois_image(F23, 16)] == [1, 7]
    assert [j.value for j in galois_image(Q, 4)] == [1, 3]


def test_galois_image_trivial_when_root_present():
    assert [j.value for j in galois_image(F5, 4)] == [1]
    assert [j.value for j in galois_image(Q, 2)] == [1]


def test_galois_image_rejects_higher_degree():
    with pytest.raises(PreconditionError):
        galois_image(Q, 5)
    with pytest.raises(PreconditionError):
        galois_image(F5, 7)


def test_galois_image_contained_in_fixing_subgroup():
    # The image always fixes the in-field part mu_(n_F), and its size
    # divides phi(n)/phi(n_F).
    for p, k, q in prime_powers(49):
        field = finite_field(p, k)
        for n in divisors(q * q - 1):
            if (q - 1) % n != 0:
                img = galois_image(field, n)
                assert [j.value for j in img] == sorted({1 % n, q % n})
            else:
                img = galois_image(field, n)
            nf = n_F(field, n)
            allowed = {j.value for j in fixing_subgroup(n, nf)}
            assert {j.value for j in img} <= allowed
            quota = euler_phi(n) // euler_phi(nf)
            assert quota % len(img) == 0


def test_galois_image_matches_yogh():
    for field, n in ((F5, 8), (F23, 16), (F23, 48), (Q, 3), (Q, 4), (Q, 6)):
        assert is_quadratic(field, n)
        img = {j.value for j in galois_image(field, n)}
        assert img == {1, yogh(field, n).value}
