"""Lexer unit tests: tokens, literals, comments, directives."""

import pytest

from repro.verilog.lexer import (
    Token,
    VerilogLexError,
    parse_sized_number,
    tokenize,
)


def kinds(text):
    return [tok.kind for tok in tokenize(text)]


def values(text):
    return [tok.value for tok in tokenize(text)]


def test_keywords_and_identifiers():
    toks = tokenize("module foo; endmodule")
    assert [(t.kind, t.value) for t in toks] == [
        ("KEYWORD", "module"),
        ("ID", "foo"),
        ("PUNCT", ";"),
        ("KEYWORD", "endmodule"),
    ]


def test_comments_and_directives_are_skipped():
    text = """
    // line comment
    /* block
       comment */
    `timescale 1ns/1ps
    wire w;
    """
    assert values(text) == ["wire", "w", ";"]


def test_sized_number_tokens():
    toks = tokenize("8'hFF 4'b1010 3'o7 16'd42 'b1")
    assert all(t.kind == "SIZED_NUMBER" for t in toks)
    assert parse_sized_number("8'hFF") == (255, 8, "h")
    assert parse_sized_number("4'b1010") == (10, 4, "b")
    assert parse_sized_number("3'o7") == (7, 3, "o")
    assert parse_sized_number("16'd42") == (42, 16, "d")
    assert parse_sized_number("'b1") == (1, None, "b")


def test_sized_number_with_space_before_tick():
    toks = tokenize("4 'b0101")
    assert len(toks) == 1 and toks[0].kind == "SIZED_NUMBER"


def test_x_and_z_digits_read_as_zero():
    value, width, base = parse_sized_number("4'b1x0z")
    assert (value, width, base) == (0b1000, 4, "b")


def test_unsized_number_with_underscores():
    toks = tokenize("1_000")
    assert toks[0].kind == "NUMBER"
    assert int(toks[0].value.replace("_", "")) == 1000


def test_operators_maximal_munch():
    assert values("a <<< b <= c !== d") == ["a", "<<<", "b", "<=", "c",
                                            "!==", "d"]


def test_escaped_identifier():
    toks = tokenize(r"\bus[0] other")
    assert toks[0] == Token("ID", "bus[0]", 1, 1)
    assert toks[1].value == "other"


def test_line_numbers_tracked():
    toks = tokenize("a\nb\n  c")
    assert [t.line for t in toks] == [1, 2, 3]


def test_lex_error_on_bad_base():
    with pytest.raises(VerilogLexError):
        tokenize("4'q1010")


def test_columns_are_one_based_and_exact():
    toks = tokenize("assign y = 5 + b;\n\tq <= 4 'b1;")
    assert [(t.value, t.line, t.col) for t in toks] == [
        ("assign", 1, 1), ("y", 1, 8), ("=", 1, 10), ("5", 1, 12),
        ("+", 1, 14), ("b", 1, 16), (";", 1, 17),
        ("q", 2, 2), ("<=", 2, 4), ("4 'b1", 2, 7), (";", 2, 12),
    ]


def test_lines_count_newlines_inside_comments_and_strings():
    toks = tokenize('/* a\nb */ x "s\ntr" y\n// c\nz')
    assert [(t.value, t.line, t.col) for t in toks] == [
        ("x", 2, 6), ("s\ntr", 2, 8), ("y", 3, 5), ("z", 5, 1),
    ]


@pytest.mark.parametrize("text,message", [
    ("wire a;\n/* never closed\nwire b;",
     "unterminated block comment starting at line 2"),
    ("/*/", "unterminated block comment starting at line 1"),
    ('a\nb\n"open \\" still open\n', "unterminated string literal starting at line 3"),
])
def test_unterminated_comment_or_string_is_an_error(text, message):
    with pytest.raises(VerilogLexError, match=message):
        tokenize(text)


def test_bad_base_message_names_the_base_and_line():
    with pytest.raises(VerilogLexError, match=r"invalid number base 'q' at line 2"):
        tokenize("a\n4 'Q1")
    with pytest.raises(VerilogLexError, match=r"invalid number base 'x' at line 1"):
        tokenize("'sx0")


def test_unexpected_character_message():
    with pytest.raises(VerilogLexError, match=r"unexpected character '\\x0c' at line 3"):
        tokenize("a\n\nb \f c")


def test_non_ascii_identifiers_follow_isalnum():
    # Letters start an identifier; any str.isalnum() character continues it.
    toks = tokenize("größe ñ_2 x٣ é$")
    assert [(t.kind, t.value) for t in toks] == [
        ("ID", "größe"), ("ID", "ñ_2"), ("ID", "x٣"), ("ID", "é$"),
    ]
    with pytest.raises(VerilogLexError, match="unexpected character '½'"):
        tokenize("a ½")
