import pytest

from leveldiv import (
    DuplicateNameError,
    EmptyInputError,
    InvalidCharacterError,
    LevelIoError,
    LevelSet,
    RaggedRowsError,
    TileAlphabet,
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
    with pytest.raises(RaggedRowsError):
        parse_level("ab\ncd\n\n")


def test_parse_normalizes_crlf():
    assert parse_level("ab\r\ncd\r\n") == parse_level("ab\ncd\n")
    assert parse_level("ab\rcd\r") == parse_level("ab\ncd\n")


def test_parse_empty():
    with pytest.raises(EmptyInputError):
        parse_level("")
    with pytest.raises(EmptyInputError):
        parse_level("\n")


def test_parse_ragged():
    with pytest.raises(RaggedRowsError):
        parse_level("ab\nabc\n")


def test_parse_rejects_unprintable():
    with pytest.raises(InvalidCharacterError):
        parse_level("a\tb\nxy z"[:3])  # tab inside a row
    with pytest.raises(InvalidCharacterError):
        TileGrid(("a\x01",))


def test_serialize_inverse_of_parse():
    text = "ab\ncd"
    assert serialize_level(parse_level(text)) == text
    grid = TileGrid(("-X", "o?"))
    assert parse_level(serialize_level(grid)) == grid


def test_grid_validation():
    with pytest.raises(EmptyInputError):
        TileGrid(())
    with pytest.raises(EmptyInputError):
        TileGrid(("",))
    with pytest.raises(RaggedRowsError):
        TileGrid(("ab", "a"))


def test_grid_crop():
    grid = TileGrid(("abcd", "efgh", "ijkl"))
    assert grid.crop(1, 0, 2, 2).rows == ("bc", "fg")
    assert grid.crop(0, 0, 4, 3) == grid
    with pytest.raises(ValueError):
        grid.crop(3, 0, 2, 1)
    with pytest.raises(ValueError):
        grid.crop(-1, 0, 2, 2)


def test_alphabet_first_occurrence_order():
    alpha = TileAlphabet.from_symbols("banana")
    assert alpha.symbols == ("b", "a", "n")
    assert "a" in alpha.symbols and "z" not in alpha.symbols
    assert len(alpha.symbols) == 3


def test_alphabet_validation():
    with pytest.raises(EmptyInputError):
        TileAlphabet(())
    with pytest.raises(DuplicateNameError):
        TileAlphabet(("a", "a"))
    with pytest.raises(InvalidCharacterError):
        TileAlphabet(("ab",))


def test_level_set_basics():
    g1 = TileGrid(("ab",))
    g2 = TileGrid(("cd",))
    levels = LevelSet.from_grids([("one", g1), ("two", g2)])
    assert levels.names == ["one", "two"]
    assert levels.grids == [g1, g2]
    assert len(levels) == 2
    assert levels.alphabet.symbols == ("a", "b", "c", "d")


def test_level_set_duplicate_names():
    grid = TileGrid(("ab",))
    with pytest.raises(DuplicateNameError):
        LevelSet.from_grids([("one", grid), ("one", grid)])


def test_level_set_empty():
    with pytest.raises(EmptyInputError):
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
    with pytest.raises(InvalidCharacterError) as err:
        load_level(path)
    assert "latin1.txt" in str(err.value)


def test_load_level_missing_file(tmp_path):
    with pytest.raises(LevelIoError) as err:
        load_level(tmp_path / "nope.txt")
    assert "nope.txt" in str(err.value)


def test_bundled_mario_1_1(mario_1_1):
    assert mario_1_1.width == 229
    assert mario_1_1.height == 14
    assert set(mario_1_1.cells) == set("XS-?QE<>[]o")
