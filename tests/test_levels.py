import pytest
from hypothesis import given
from hypothesis import strategies as st

from leveldiv import (
    LevelDivError,
    LevelIoError,
    LevelSet,
    TileGrid,
    load_level,
    parse_level,
    serialize_level,
)


def test_parse_basic():
    grid = parse_level("ab\ncd\n")
    assert grid.rows == ("ab", "cd")
    assert grid.width == 2 and grid.height == 2
    assert grid.cells == "abcd"
    assert grid.rows[0][1] == "b"


def test_parse_strips_single_trailing_newline_only():
    assert parse_level("ab\ncd").rows == ("ab", "cd")
    assert parse_level("ab\ncd\n").rows == ("ab", "cd")
    # a second trailing newline leaves an empty final row behind
    with pytest.raises(LevelDivError, match="row 2 has length 0, expected 2"):
        parse_level("ab\ncd\n\n")


def test_parse_normalizes_crlf():
    assert parse_level("ab\r\ncd\r\n") == parse_level("ab\ncd\n")
    assert parse_level("ab\rcd\r") == parse_level("ab\ncd\n")


def test_parse_empty():
    with pytest.raises(LevelDivError, match="level text is empty"):
        parse_level("")
    with pytest.raises(LevelDivError, match="level text is empty"):
        parse_level("\n")


def test_parse_ragged():
    with pytest.raises(LevelDivError, match="row 1 has length 3, expected 2"):
        parse_level("ab\nabc\n")


def test_parse_rejects_unprintable():
    with pytest.raises(LevelDivError, match=r"invalid tile symbol '\\t'"):
        parse_level("a\tb\nxy z"[:3])  # tab inside a row
    with pytest.raises(LevelDivError, match=r"invalid tile symbol '\\x01'"):
        TileGrid(("a\x01",))


def test_unprintable_symbol_messages_name_the_first_one():
    # rows are checked in order, each for its length and then for its symbols
    cases = {
        ("a\x01b\x02", "abcd"): "row 0 contains invalid tile symbol '\\x01'",
        ("abc", "abc", "ab\u2028"): "row 2 contains invalid tile symbol '\\u2028'",
        ("abc", "a\x7f\x00", "x"): "row 1 contains invalid tile symbol '\\x7f'",
        ("ab", "\x00"): "row 1 has length 1, expected 2",
    }
    for rows, message in cases.items():
        with pytest.raises(LevelDivError) as err:
            TileGrid(rows)
        assert str(err.value) == message


def _per_cell_message(rows):
    """The grid check's message, found one cell at a time: the reference for its per-row form."""
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            return f"row {i} has length {len(row)}, expected {width}"
        for ch in row:
            if not ch.isprintable():
                return f"row {i} contains invalid tile symbol {ch!r}"
    return None


@given(st.lists(st.text("ab \t\x00\x7f\xa0\u2028é", min_size=1, max_size=4), min_size=1, max_size=4))
def test_grid_check_matches_the_per_cell_check(rows):
    expected = _per_cell_message(rows)
    try:
        TileGrid(tuple(rows))
    except LevelDivError as err:
        assert str(err) == expected
    else:
        assert expected is None


def test_serialize_inverse_of_parse():
    text = "ab\ncd"
    assert serialize_level(parse_level(text)) == text
    grid = TileGrid(("-X", "o?"))
    assert parse_level(serialize_level(grid)) == grid


def test_grid_validation():
    with pytest.raises(LevelDivError, match="at least one row"):
        TileGrid(())
    with pytest.raises(LevelDivError, match="rows must not be empty"):
        TileGrid(("",))
    with pytest.raises(LevelDivError, match="row 1 has length 1, expected 2"):
        TileGrid(("ab", "a"))


def test_grid_crop():
    grid = TileGrid(("abcd", "efgh", "ijkl"))
    assert grid.crop(1, 0, 2, 2).rows == ("bc", "fg")
    assert grid.crop(0, 0, 4, 3) == grid
    with pytest.raises(ValueError):
        grid.crop(3, 0, 2, 1)
    with pytest.raises(ValueError):
        grid.crop(-1, 0, 2, 2)


def test_level_set_basics():
    g1 = TileGrid(("ab",))
    g2 = TileGrid(("cd",))
    levels = LevelSet.from_grids([("one", g1), ("two", g2)])
    assert levels.names == ["one", "two"]
    assert levels.grids == [g1, g2]
    assert len(levels) == 2
    assert levels.symbols == ("a", "b", "c", "d")


def test_alphabet_first_occurrence_order():
    # symbols keep the order of first occurrence and drop repeats
    symbols = LevelSet.from_grids([("fruit", TileGrid(("banana",)))]).symbols
    assert symbols == ("b", "a", "n")
    assert "a" in symbols and "z" not in symbols
    assert len(symbols) == 3


def test_level_set_duplicate_names():
    grid = TileGrid(("ab",))
    with pytest.raises(LevelDivError, match="duplicate level names"):
        LevelSet.from_grids([("one", grid), ("one", grid)])


def test_level_set_empty():
    with pytest.raises(LevelDivError, match="at least one level"):
        LevelSet.from_grids([])


def test_load_level(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("-X\nXX\n")
    grid = load_level(path)
    assert grid.rows == ("-X", "XX")


def test_load_level_drops_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf-X\r\nXX\r\n")
    assert load_level(path).rows == ("-X", "XX")


def test_load_level_names_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"-X\nX\xe9\n")
    with pytest.raises(LevelDivError, match="not UTF-8 text") as err:
        load_level(path)
    assert "latin1.txt" in str(err.value)


def test_load_level_missing_file(tmp_path):
    with pytest.raises(LevelIoError, match="cannot read level file") as err:
        load_level(tmp_path / "nope.txt")
    assert "nope.txt" in str(err.value)


def test_bundled_mario_1_1(mario_1_1):
    assert mario_1_1.width == 229
    assert mario_1_1.height == 14
    assert set(mario_1_1.cells) == set("XS-?QE<>[]o")
