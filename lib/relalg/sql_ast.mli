(** Abstract syntax for the SQL subset used by the paper.

    The subset covers exactly what the methodology needs: [SELECT
    [DISTINCT] cols FROM t WHERE pred], set operators [UNION] / [EXCEPT] /
    [INTERSECT], [CREATE TABLE name AS query], [INSERT INTO name VALUES
    …], and [DROP TABLE].  WHERE predicates are {!Expr.t} values and so
    additionally admit the paper's ternary [cond ? p1 : p2] notation and
    registered boolean functions such as [isrequest(inmsg)]. *)

(** What the SELECT clause projects. *)
type projection =
  | Star  (** [SELECT *] *)
  | Columns of string list
  | Count  (** [SELECT COUNT] of all rows: a one-row, one-column result *)
  | Group_count of string list
      (** [SELECT c1, …, COUNT] with [GROUP BY c1, …]: one row per
          distinct key, with a trailing [count] column *)

type order = Asc | Desc

type select = {
  distinct : bool;
  columns : projection;
  from : string;
  where : Expr.t option;
  order_by : (string * order) list;
      (** [ORDER BY c1 [ASC|DESC], …]; sorts under {!Value.order} after
          projection (and after the grouped count, so [count] is
          orderable) *)
  limit : int option;  (** [LIMIT n], applied after ordering *)
}

type query =
  | Select of select
  | Union of query * query
  | Except of query * query
  | Intersect of query * query

type statement =
  | Query of query
  | Create_table_as of string * query
  | Insert of string * Value.t list list
  | Drop_table of string

val pp_query : Format.formatter -> query -> unit
