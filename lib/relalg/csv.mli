(** CSV import/export of tables — the interchange format for the "SQL
    report generation" step and for loading channel assignments or
    externally-edited controller tables back into the database.

    Cells are rendered with {!Value.to_sql}-style typing rules on input:
    an empty cell or the literal [NULL] reads back as [Null], an integer
    literal as [Int], [true]/[false] as [Bool], anything else as [Str].
    Cells containing commas, quotes or newlines are double-quoted with
    [""] escaping, per RFC 4180. *)

exception Csv_error of { line : int; message : string }

val to_string : Table.t -> string
(** Header line (the schema) followed by one line per row. *)

val of_string : name:string -> string -> Table.t
(** Parse a CSV document; the first line is the schema.
    @raise Csv_error on ragged rows, unterminated quotes or a header
    naming a column twice, naming the file line the row starts on. *)

val of_string_lines : name:string -> string -> Table.t * int array
(** {!of_string}, plus the file line each data row starts on (the
    header is line 1).  A quoted cell can span lines, so row [i] is not
    always line [i + 2]. *)

val save : filename:string -> Table.t -> unit
