(** Hand-written lexer for the SQL subset.

    Keywords are case-insensitive; identifiers are
    [[A-Za-z_][A-Za-z0-9_.]*] (dots allowed so prefixed columns like
    [ED.inmsg] lex as one name); string literals are single-quoted with
    [''] as the escape for a quote. *)

type token =
  | IDENT of string
  | STRING of string
  | INT of int
  | FLOAT of float  (** [digits.digits] only — no exponent form *)
  | KW of string  (** uppercased keyword: SELECT, FROM, WHERE, … *)
  | LPAREN
  | RPAREN
  | COMMA
  | STAR
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | QUESTION
  | COLON
  | SEMI
  | EOF

exception Lex_error of { pos : int; message : string }

val tokenize : string -> token list
(** Whole-input tokenization, ending with [EOF].
    @raise Lex_error on an illegal character, an unterminated string or
    an integer literal beyond the native int range. *)

val pp_token : Format.formatter -> token -> unit
