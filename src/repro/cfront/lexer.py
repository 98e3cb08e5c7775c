"""Tokenizer for the C subset.

Handles the preprocessor the way the analysis needs it: ``#include`` lines
vanish, object-like ``#define NAME <integer>`` macros are collected (glue
code defines tag numbers this way), and all other directives are skipped
line-wise.  Comments (both styles) are stripped.

The scanner is a single compiled master regex — one alternation with named
groups, maximal-munch punctuation baked into the pattern — driven in one
pass over the text.  Line/column positions are tracked incrementally while
scanning (tokens arrive in offset order), so no per-token binary search
over line starts is needed; this is the cold path of every batch sweep.
"""

from __future__ import annotations

import enum
import re

from ..source import Position, SourceFile, Span


class TokKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    EOF = "eof"


class Token:
    """One lexeme; a plain slotted class (immutable by convention) because
    the scanner allocates one per token on the cold path."""

    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: TokKind, text: str, span: Span):
        self.kind = kind
        self.text = text
        self.span = span

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Token)
            and self.kind is other.kind
            and self.text == other.text
            and self.span == other.span
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.span))

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.span!r})"

    def is_punct(self, *texts: str) -> bool:
        return self.kind is TokKind.PUNCT and self.text in texts

    def is_ident(self, *texts: str) -> bool:
        return self.kind is TokKind.IDENT and (not texts or self.text in texts)

    def __str__(self) -> str:
        return self.text or "<eof>"


class LexError(Exception):
    def __init__(self, message: str, span: Span):
        self.span = span
        super().__init__(f"{span}: {message}")


#: Multi-character operators, longest first so maximal munch works.
_PUNCTS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_DEFINE_RE = re.compile(
    r"#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s+(.+?)\s*$", re.MULTILINE
)

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"\n]+)"', re.MULTILINE)

#: The whole token grammar as one alternation.  Group order encodes the
#: old scanner's priorities: comments and directives are trivia, numbers
#: try hex before octal before decimal, and the ``BAD*`` groups catch the
#: openers of unterminated literals so they raise instead of mis-lexing.
#: Alternation order is semantic where first characters overlap (the
#: comment groups must precede PUNCT's ``/``; the BAD* groups catch what
#: their real groups reject) and frequency-tuned where they don't
#: (identifiers and punctuation lead).  Group *numbers* drive the token
#: loop's dispatch — keep `_G_*` below in sync.
_MASTER_RE = re.compile(
    r"""
      (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<WS>[ \t\r\n]+)
    | (?P<NUMBER>(?:0[xX][0-9a-fA-F]+|0[0-7]+|[0-9]+)[uUlL]*)
    | (?P<LINECOMMENT>//[^\n]*)
    | (?P<BLOCKCOMMENT>/\*.*?\*/)
    | (?P<BADCOMMENT>/\*)
    | (?P<DIRECTIVE>\#(?:[^\n]*\\\n)*[^\n]*)
    | (?P<STRING>"(?:\\.|[^"\\])*")
    | (?P<CHAR>'(?:\\.|[^\\])')
    | (?P<PUNCT>%s)
    | (?P<BADSTRING>")
    | (?P<BADCHAR>')
    """
    % "|".join(re.escape(p) for p in _PUNCTS),
    re.VERBOSE | re.DOTALL,
)

_G_IDENT = _MASTER_RE.groupindex["IDENT"]
_G_WS = _MASTER_RE.groupindex["WS"]
_G_NUMBER = _MASTER_RE.groupindex["NUMBER"]
_G_LINECOMMENT = _MASTER_RE.groupindex["LINECOMMENT"]
_G_BLOCKCOMMENT = _MASTER_RE.groupindex["BLOCKCOMMENT"]
_G_BADCOMMENT = _MASTER_RE.groupindex["BADCOMMENT"]
_G_DIRECTIVE = _MASTER_RE.groupindex["DIRECTIVE"]
_G_STRING = _MASTER_RE.groupindex["STRING"]
_G_CHAR = _MASTER_RE.groupindex["CHAR"]
_G_PUNCT = _MASTER_RE.groupindex["PUNCT"]
_G_BADSTRING = _MASTER_RE.groupindex["BADSTRING"]

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
}

_STRING_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(match: "re.Match[str]") -> str:
    char = match.group(1)
    return _ESCAPES.get(char, char)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def scan_identifiers(text: str) -> set[str]:
    """Every identifier-shaped word in ``text``, without tokenizing:
    comments, strings and directives included."""
    return set(_IDENT_RE.findall(text))


def scan_includes(text: str) -> tuple[str, ...]:
    """Quoted (project-local) ``#include`` targets, in order, deduplicated.

    Angle-bracket includes are system headers and never part of the
    project's dependency graph; quoted ones name files an edit to which
    must invalidate the including translation unit, so the incremental
    engine records them even though tokenization drops the directive.
    """
    seen: dict[str, None] = {}
    for match in _INCLUDE_RE.finditer(text):
        seen.setdefault(match.group(1))
    return tuple(seen)


class Lexer:
    """Produces the token list for a :class:`SourceFile`."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.defines: dict[str, int] = {}

    def tokenize(self) -> list[Token]:
        self._collect_defines()
        source = self.source
        text = self.text
        length = len(text)
        filename = source.filename
        defines = self.defines
        tokens: list[Token] = []
        append = tokens.append
        scan = _MASTER_RE.match
        count_nl = text.count
        # incremental line/column state: tokens arrive in offset order, so
        # one left-to-right pass replaces per-token bisects over line starts
        line = 1
        line_start = 0
        pos = 0
        while pos < length:
            match = scan(text, pos)
            if match is None:
                raise LexError(
                    f"unexpected character {text[pos]!r}",
                    source.span(pos, pos + 1),
                )
            group = match.lastindex
            end = match.end()
            if group == _G_IDENT:
                word = match.group()
                span = Span(
                    filename,
                    Position(pos, line, pos - line_start + 1),
                    Position(end, line, end - line_start + 1),
                )
                value = defines.get(word)
                if value is not None:
                    append(Token(TokKind.NUMBER, str(value), span))
                else:
                    append(Token(TokKind.IDENT, word, span))
                pos = end
                continue
            if group == _G_WS:
                newlines = count_nl("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", pos, end) + 1
                pos = end
                continue
            if group == _G_PUNCT:
                span = Span(
                    filename,
                    Position(pos, line, pos - line_start + 1),
                    Position(end, line, end - line_start + 1),
                )
                append(Token(TokKind.PUNCT, match.group(), span))
                pos = end
                continue
            if group == _G_NUMBER:
                span = Span(
                    filename,
                    Position(pos, line, pos - line_start + 1),
                    Position(end, line, end - line_start + 1),
                )
                append(Token(TokKind.NUMBER, str(self._number_value(match.group())), span))
                pos = end
                continue
            if group == _G_STRING or group == _G_CHAR:
                start_pos = Position(pos, line, pos - line_start + 1)
                newlines = count_nl("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", pos, end) + 1
                span = Span(filename, start_pos, Position(end, line, end - line_start + 1))
                raw = match.group()
                if group == _G_STRING:
                    append(Token(TokKind.STRING, _STRING_ESCAPE_RE.sub(_unescape, raw[1:-1]), span))
                else:
                    char = _ESCAPES.get(raw[2], raw[2]) if raw[1] == "\\" else raw[1]
                    append(Token(TokKind.NUMBER, str(ord(char)), span))
                pos = end
                continue
            if group == _G_LINECOMMENT or group == _G_DIRECTIVE or group == _G_BLOCKCOMMENT:
                newlines = count_nl("\n", pos, end)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", pos, end) + 1
                pos = end
                continue
            if group == _G_BADCOMMENT:
                raise LexError(
                    "unterminated comment", source.span(pos, length)
                )
            if group == _G_BADSTRING:
                raise LexError(
                    "unterminated string literal", source.span(pos, length)
                )
            # BADCHAR
            raise LexError(
                "unterminated character literal", source.span(pos, length)
            )
        self.pos = length
        eof_position = Position(length, line, length - line_start + 1)
        append(Token(TokKind.EOF, "", Span(filename, eof_position, eof_position)))
        return tokens

    # -- preprocessor-lite ---------------------------------------------------

    def _collect_defines(self) -> None:
        for match in _DEFINE_RE.finditer(self.text):
            name, body = match.group(1), match.group(2).strip()
            value = self._parse_int_literal(body)
            if value is not None:
                self.defines[name] = value

    @staticmethod
    def _parse_int_literal(text: str) -> int | None:
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1].strip()
        try:
            return int(text, 0)
        except ValueError:
            return None

    @staticmethod
    def _number_value(text: str) -> int:
        """Integer value of a matched literal (suffix already in ``text``)."""
        digits = text.rstrip("uUlL")
        if digits.startswith(("0x", "0X")):
            return int(digits, 16)
        if len(digits) > 1 and digits.startswith("0"):
            try:
                return int(digits, 8)
            except ValueError:
                # "08"/"09": never octal-shaped; the old scanner read them
                # as decimal
                return int(digits, 10)
        return int(digits, 10)


def tokenize(source: SourceFile) -> list[Token]:
    return Lexer(source).tokenize()
