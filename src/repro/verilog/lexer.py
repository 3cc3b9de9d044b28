"""Tokenizer for the synthesizable Verilog subset.

One compiled master pattern, an alternation of named groups, is matched
with ``pattern.match(text, pos)`` at each position.  The group that
matched (``lastgroup``) names the token kind; whitespace, ``//`` and
``/* */`` comments and backtick directives are skipped.  Lines are counted
from the newlines inside skipped text and string literals, and columns are
offsets from the last newline, so no per-character bookkeeping runs.
An unterminated ``/*`` comment or string literal raises
:class:`VerilogLexError` naming the line it opens on.
Sized literals (``8'hFF``, ``4 'b0101``, ``'d15``), escaped identifiers and
maximal-munch operators are covered.  The result is a flat list of
:class:`Token` objects consumed by :mod:`repro.verilog.parser`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


class VerilogLexError(Exception):
    """Raised when the input contains a character sequence we cannot tokenize."""


KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "initial", "begin", "end", "if", "else", "case",
    "casez", "casex", "endcase", "default", "posedge", "negedge", "or",
    "parameter", "localparam", "signed", "integer", "genvar", "generate",
    "endgenerate", "for", "function", "endfunction", "task", "endtask",
}

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "~&", "~|", "~^", "^~",
    "**",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "=", "?",
]

PUNCTUATION = ["(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "#", "@"]


@dataclass(slots=True)
class Token:
    """A single lexical token."""

    kind: str   # 'KEYWORD', 'ID', 'NUMBER', 'SIZED_NUMBER', 'OP', 'PUNCT', 'STRING'
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, line={self.line})"


# The first alternative that matches wins, so group order matters:
#   SKIP          whitespace, ``//`` and ``/* */`` comments, backtick
#                 directives (skipped to the end of the line);
#   ID            identifiers and keywords with an ASCII first character;
#   SIZED_NUMBER  ``8'hFF``, ``4 'b0`` (blanks before the tick), ``'sd3``;
#   STRING        the text between the quotes, escapes left as written;
#   OPEN          a ``/*`` or ``"`` whose terminated form did not match,
#                 tried before OP so ``/*`` is not read as two operators;
#   OP            longest operator first (maximal munch);
#   ESCAPED       ``\name`` up to the next whitespace;
#   UNICODE_ID    a non-ASCII first character, which must be a letter;
#   BAD_TICK      a tick without a valid base.
# ``\w`` is exactly ``str.isalnum()`` plus ``_``, the identifier rule.
_SIZED_TAIL = r"'[sS]?[bBoOdDhH][\w?]*"
_MASTER = re.compile("|".join([
    r"(?P<SKIP>[ \t\r\n]+|//[^\n]*|/\*.*?\*/|`[^\n]*)",
    r"(?P<ID>[A-Za-z_$][\w$]*)",
    "(?P<PUNCT>[" + re.escape("".join(PUNCTUATION)) + "])",
    rf"(?P<SIZED_NUMBER>\d[\d_]*[ \t]*{_SIZED_TAIL}|{_SIZED_TAIL})",
    r"(?P<NUMBER>\d[\d_]*)",
    r'"(?P<STRING>(?:[^"\\]|\\.)*)"',
    r"(?P<OPEN>/\*|\")",
    "(?P<OP>" + "|".join(re.escape(op) for op in OPERATORS) + ")",
    r"\\(?P<ESCAPED>\S*)",
    r"(?P<UNICODE_ID>[^\W\d][\w$]*)",
    r"(?P<BAD_TICK>')",
]), re.DOTALL)
_TOKEN_GROUPS = frozenset({"PUNCT", "OP", "NUMBER", "SIZED_NUMBER", "STRING"})


def _lex_error(text: str, pos: int, line: int, kind: Optional[str]) -> VerilogLexError:
    """The diagnostic for a failed match (``kind`` None) or an error group."""
    if kind == "BAD_TICK":
        base = pos + 1
        if text[base:base + 1] in ("s", "S"):
            base += 1
        return VerilogLexError(
            f"invalid number base {text[base:base + 1].lower()!r} at line {line}"
        )
    if kind == "OPEN":
        what = "block comment" if text[pos] == "/" else "string literal"
        return VerilogLexError(f"unterminated {what} starting at line {line}")
    return VerilogLexError(f"unexpected character {text[pos]!r} at line {line}")


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` and return the full token list."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos, end = 0, len(text)
    line, line_start = 1, 0
    while pos < end:
        m = match(text, pos)
        kind = m.lastgroup if m is not None else None
        if kind == "SKIP":
            stop = m.end()
            newlines = text.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, stop) + 1
            pos = stop
            continue
        if kind == "ID":
            value = m.group(kind)
            if value in KEYWORDS:
                kind = "KEYWORD"
        elif kind in _TOKEN_GROUPS:
            value = m.group(kind)
        elif kind == "ESCAPED" or (kind == "UNICODE_ID" and text[pos].isalpha()):
            value = m.group(kind)
            kind = "ID"
        else:
            raise _lex_error(text, pos, line, kind)
        append(Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
        if kind == "STRING" and "\n" in value:
            line += value.count("\n")
            line_start = text.rindex("\n", 0, pos) + 1
    return tokens


def parse_sized_number(literal: str) -> tuple[int, Optional[int], str]:
    """Parse a sized literal like ``8'hFF`` into ``(value, width, base)``.

    ``x``/``z``/``?`` digits are treated as zero (the synthesizable subset does
    not propagate unknowns).
    """
    if "'" not in literal:
        return int(literal.replace("_", "")), None, "d"
    size_part, rest = literal.split("'", 1)
    rest = rest.lstrip("sS")
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "")
    digits = digits.replace("x", "0").replace("X", "0")
    digits = digits.replace("z", "0").replace("Z", "0").replace("?", "0")
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    value = int(digits, base) if digits else 0
    width = int(size_part) if size_part.strip() else None
    return value, width, base_char
