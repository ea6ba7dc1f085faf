(** Virtual-channel assignments — the table V of section 4.1.

    V has four columns (m, s, d, v): message [m] sent from source role [s]
    to destination role [d] travels on virtual channel [v].  Three
    assignments from the paper's narrative are provided:

    - {!initial}: four channels VC0–VC3; the directory-to-memory traffic
      shares VC0 (requests) — the configuration in which "several cycles
      leading to deadlocks were found", "most … involving the directory
      controller and the memory controller at the home node";
    - {!with_vc4}: a dedicated VC4 carries directory-to-memory requests —
      the configuration in which the paper's Figure 4 wb/readex deadlock
      (a VC2/VC4 cycle) survives;
    - {!debugged}: additionally, [mread] moves to a dedicated hardware
      path (not a shared virtual channel, hence absent from V) — the
      paper's final fix; the VCG becomes acyclic. *)

type assignment = { msg : string; src : string; dst : string; vc : string }

type t = { name : string; rows : assignment list }

val vc0 : string
val vc1 : string
val vc2 : string
val vc3 : string
val vc4 : string

val initial : t
val with_vc4 : t
val debugged : t
val standard : t list
(** The three above, in narrative order. *)

val lookup : t -> msg:string -> src:string -> dst:string -> string option
(** The channel assigned to a (message, source, destination) triple. *)

val channels : t -> string list
(** Distinct channels, sorted. *)

val to_table : t -> Relalg.Table.t
(** As a database table named after the assignment, columns (m, s, d, v). *)

(** Why a table is not a channel assignment.  Rows are named by the CSV
    file line they start on, as {!Relalg.Csv} names its own errors. *)
type error =
  | Wrong_columns of string list  (** the columns found, not (m, s, d, v) *)
  | No_rows
  | Non_string_cell of { line : int; column : string; value : Relalg.Value.t }
      (** a NULL, number or boolean where a name belongs *)
  | Duplicate of {
      first : int;
      second : int;
      msg : string;
      src : string;
      dst : string;
    }
      (** lines [first] < [second] assign the same (message, source,
          destination) triple *)

exception Invalid of error

val error_to_string : error -> string
(** One line, without the table's name. *)

val of_table : Relalg.Table.t -> t
(** Inverse of {!to_table}.  Row [i] is named line [i + 2], the line
    {!Relalg.Csv.to_string} writes it on when no cell spans lines.
    @raise Invalid unless the columns are exactly (m, s, d, v), there is
    at least one row, every cell is a name, and no (m, s, d) triple is
    assigned twice. *)

val of_csv : name:string -> string -> t
(** {!of_table} of a CSV document, naming each row by the file line it
    starts on.
    @raise Relalg.Csv.Csv_error if the document is not a table.
    @raise Invalid as {!of_table}. *)

val reassign : t -> msg:string -> src:string -> dst:string -> vc:string -> t
(** Functional update of one triple's channel (adding it if absent). *)

val remove : t -> msg:string -> src:string -> dst:string -> t
(** Drop a triple from V — i.e. move that message to a dedicated
    hardware path outside the virtual-channel fabric. *)
