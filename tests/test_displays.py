"""``displays.DISPLAYS`` is the one table of the paper's closed-form
displays: its keys are registry keys with the same families, the
explicit structure rows of the registry come from it, each row's check
applies the row's own left side, and coeff-match reads a family's rows
in table order."""

import pytest

from qaskey import cli
from qaskey import displays
from qaskey import families as fam
from qaskey import relations as rel

#: coeff-match's entries at one degree, by family: (display, coefficient)
LAYOUT = {
    fam.AW: [("eq18", "plus"), ("eq18", "minus"), ("eq76", "slope"), ("eq76", "rhs"),
             ("eq77", "slope"), ("eq77", "rhs")],
    fam.JACOBI: [("eq26", "plus"), ("eq26", "minus"),
                 ("eq02", "plus"), ("eq02", "middle"), ("eq02", "minus")],
    fam.CQJ49: [("eq59", "plus"), ("eq59", "minus")],
    fam.CQU: [("eq54", "plus"), ("eq54", "minus")],
    fam.BIGQ: [("eq40", "plus"), ("eq40", "minus")],
}


def test_every_display_is_a_registry_key_with_its_families():
    for key, display in displays.DISPLAYS.items():
        assert key in cli.IDENTITIES, key
        assert display.families == cli.IDENTITIES[key][0], key


def test_structure_rows_come_from_the_table():
    assert displays.STRUCTURE == ("eq18", "eq26", "eq59", "eq54", "eq40")
    keys = list(cli.IDENTITIES)
    assert keys[keys.index("eq28") + 1:][:5] == list(displays.STRUCTURE)
    for key in displays.STRUCTURE:
        families, check = cli.IDENTITIES[key]
        assert (check.domain, check.slots) == ("1..n_max", ("plus", "minus"))
        rows = [k for f in families for k, _ in displays.rows_for(f)]
        assert [k for k in rows if k in displays.STRUCTURE] == [key]


@pytest.mark.parametrize("key", list(displays.DISPLAYS))
def test_every_row_checks_under_its_own_key(first_points, key):
    # the registry's check of a row reports under the row's key and
    # passes at the first seed-1 point of each of its families
    families, check = cli.IDENTITIES[key]
    for family in families:
        reps = check.run(first_points[fam.CQJ49 if family == fam.CQJ else family], [1, 2])
        assert [(r.identity_id, r.passed) for r in reps] == [(key, True)], family


def test_a_rows_left_side_is_what_its_check_applies(first_points, monkeypatch):
    # eq76 with 2 L on the left fails; eq28, which reads no row, still holds
    fd = first_points[fam.AW]
    row = displays.DISPLAYS["eq76"]
    monkeypatch.setitem(displays.DISPLAYS, "eq76", row._replace(
        lhs=lambda fd: lambda p: row.lhs(fd)(p).scale(2)))
    assert not cli.IDENTITIES["eq76"][1].run(fd, [1, 2])[0].passed
    assert not rel.display_check("eq76", "eq31", generic=True)(fd, [1, 2]).passed
    assert cli.IDENTITIES["eq77"][1].run(fd, [1, 2])[0].passed
    assert cli.IDENTITIES["eq28"][1].run(fd, [1, 2])[0].passed


def test_point_family_shares_its_command_line_rows():
    assert displays.rows_for(fam.CQJ49) == displays.rows_for(fam.CQJ)


@pytest.mark.parametrize("family", list(LAYOUT))
def test_coefficient_match_layout(first_points, family, monkeypatch):
    # moving one closed-form coefficient moves exactly its own entry
    fd = first_points[family]
    assert [(key, name) for key, d in displays.rows_for(family)
            for name in d.names] == LAYOUT[family]
    assert rel.check_coefficient_match(fd, [1]).passed
    for i, (key, name) in enumerate(LAYOUT[family]):
        row = displays.DISPLAYS[key]
        monkeypatch.setitem(displays.DISPLAYS, key, row._replace(
            closed=lambda spec, n, _r=row, _s=name: _r.slotted(_r.closed(spec, n), _s)))
        rep = rel.check_coefficient_match(fd, [1])
        assert [e.zero for e in rep.entries] == [j != i for j in range(len(LAYOUT[family]))]
        monkeypatch.setitem(displays.DISPLAYS, key, row)


def test_coefficient_match_slot_moves_each_plus(first_points):
    fd = first_points[fam.JACOBI]
    rep = rel.check_coefficient_match(fd, [1], perturb="plus")
    assert [e.zero for e in rep.entries] == [name != "plus" for _, name in LAYOUT[fam.JACOBI]]
