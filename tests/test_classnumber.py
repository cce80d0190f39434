from fractions import Fraction

import pytest

from ntlab import classnumber as cn


@pytest.mark.parametrize("D,h", [(3, 1), (4, 1), (7, 1), (8, 1), (11, 1),
                                 (15, 2), (20, 2), (23, 3), (47, 5), (71, 7)])
def test_class_number_reference_values(D, h):
    assert cn.class_number_h(D) == h


@pytest.mark.parametrize("D", [1, 2, 5, 6, 9, 13])
def test_invalid_discriminants_have_no_forms(D):
    assert cn.class_number_h(D) == 0


def test_weighted_values():
    assert cn.hurwitz_hstar12(0) == -1
    assert cn.hurwitz_hstar12(3) == 4
    assert cn.hurwitz_hstar12(4) == 6
    assert cn.hurwitz_hstar12(12) == 16
    assert cn.hurwitz_rational(0) == Fraction(-1, 12)
    assert cn.hurwitz_rational(3) == Fraction(1, 3)
    assert cn.hurwitz_rational(4) == Fraction(1, 2)
    assert cn.hurwitz_rational(23) == 3


def test_unweighted_conductor_sums():
    assert cn.hurwitz_hfull(3) == 1
    assert cn.hurwitz_hfull(4) == 1
    assert cn.hurwitz_hfull(16) == 2   # h(16) + h(4)
    assert cn.hurwitz_hfull(20) == 2


def test_table_agrees_with_single_shot(htable):
    # route 1: batched reduced-forms enumeration; route 2: per-discriminant
    for D in range(0, 300):
        assert cn.hurwitz_hstar12(D, htable) == cn.hurwitz_hstar12(D)
        assert cn.hurwitz_hfull(D, htable) == cn.hurwitz_hfull(D)


def test_table_falls_back_past_bound():
    small = cn.build_hurwitz_table(40)
    assert cn.hurwitz_hstar12(47, small) == cn._single_hstar12(47)
    with pytest.raises(ValueError):
        cn.hurwitz_hstar12(-4, small)


@pytest.mark.parametrize("n,val", [(1, Fraction(-1, 6)), (3, Fraction(1, 3)),
                                   (5, 1), (93, Fraction(116, 3))])
def test_eichler_hand_values(n, val, htable):
    assert cn.eichler_lhs(n, htable) == val
    assert cn.eichler_rhs(n) == val


def test_eichler_exact_small_range(htable):
    for n in range(1, 600, 2):
        assert cn.eichler_lhs(n, htable) == cn.eichler_rhs(n)


def test_cohen_coefficients_vanish(htable):
    for ell in range(1, 600, 2):
        assert cn.cohen_coefficient(ell, htable) == 0


def test_csv_roundtrip_and_idempotence(tmp_path):
    table = cn.build_hurwitz_table(250)
    path = tmp_path / "hurwitz.csv"
    cn.write_hurwitz_csv(table, path)
    text1 = path.read_bytes()
    back = cn.read_hurwitz_csv(path)
    assert back.bound == table.bound
    assert list(back.hstar12) == list(table.hstar12)
    cn.write_hurwitz_csv(back, path)
    assert path.read_bytes() == text1
    assert text1.decode().splitlines()[0] == cn.SCHEMA_HEADER


def test_load_or_build_grows_cache(tmp_path):
    t1 = cn.load_or_build(100, tmp_path, write=True)
    assert t1.bound == 100
    t2 = cn.load_or_build(50, tmp_path)    # served from the larger cache
    assert t2.bound >= 50
    t3 = cn.load_or_build(200, tmp_path, write=True)
    assert t3.bound == 200
    assert cn.read_hurwitz_csv(tmp_path / "hurwitz.csv").bound == 200


def test_divisor_sums():
    sigma, lam1, lam3 = cn.divisor_sums(6)
    assert sigma == 12
    assert lam1 == Fraction(1 + 2 + 2 + 1, 2)
    assert lam3 == Fraction(1 + 8 + 8 + 1, 2)


@pytest.mark.parametrize("damage", ["gap", "duplicate", "header-only"])
def test_bad_cache_files_are_rejected_and_rebuilt(tmp_path, damage):
    path = tmp_path / "hurwitz.csv"
    cn.write_hurwitz_csv(cn.build_hurwitz_table(60), path)
    lines = path.read_text().splitlines()
    if damage == "gap":
        del lines[2 + 23]            # D = 23 missing, h(23) = 3
    elif damage == "duplicate":
        lines.insert(2 + 24, lines[2 + 23])
    else:
        lines = lines[:2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        cn.read_hurwitz_csv(path)
    table = cn.load_or_build(40, tmp_path, write=True)
    assert table.bound == 40 and cn.hurwitz_hstar12(23, table) == 36
    assert cn.read_hurwitz_csv(path).bound == 40
    assert [p.name for p in tmp_path.iterdir()] == ["hurwitz.csv"]
