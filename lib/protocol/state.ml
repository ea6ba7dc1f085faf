type cache_state = M | E | S | I_cache

let all_cache_states = [ M; E; S; I_cache ]

type dir_state = Dir_i | Dir_si | Dir_mesi

type txn =
  | T_read
  | T_fetch
  | T_readex
  | T_swap
  | T_upgrade
  | T_wb
  | T_flush
  | T_repl
  | T_ioread
  | T_iowrite
  | T_iormw
  | T_lock
  | T_racevict

let txn_to_string = function
  | T_read -> "read"
  | T_fetch -> "fetch"
  | T_readex -> "readex"
  | T_swap -> "swap"
  | T_upgrade -> "upgrade"
  | T_wb -> "wb"
  | T_flush -> "flush"
  | T_repl -> "repl"
  | T_ioread -> "ioread"
  | T_iowrite -> "iowrite"
  | T_iormw -> "iormw"
  | T_lock -> "lock"
  | T_racevict -> "racevict"

let all_txns =
  [
    T_read; T_fetch; T_readex; T_swap; T_upgrade; T_wb; T_flush; T_repl;
    T_ioread; T_iowrite; T_iormw; T_lock; T_racevict;
  ]

let txn_of_request name =
  List.find_opt (fun t -> txn_to_string t = name) all_txns

type pending = Sd | S | D | W | Mw | Sm | Sr | C

let pending_to_string = function
  | Sd -> "sd"
  | S -> "s"
  | D -> "d"
  | W -> "w"
  | Mw -> "m"
  | Sm -> "sm"
  | Sr -> "sr"
  | C -> "c"

type busy = { txn : txn; pending : pending }

let busy_to_string b =
  Printf.sprintf "Busy-%s-%s" (txn_to_string b.txn) (pending_to_string b.pending)

let coherent_txns = [ T_read; T_fetch; T_readex; T_swap; T_upgrade ]

let all_busy_states =
  List.concat_map
    (fun txn -> List.map (fun pending -> { txn; pending }) [ Sd; S; D ])
    all_txns
  @ List.concat_map
      (fun txn -> List.map (fun pending -> { txn; pending }) [ W; Mw; Sm; Sr; C ])
      coherent_txns

let busy_of_string s =
  List.find_opt (fun b -> busy_to_string b = s) all_busy_states

let busy_strings = List.map busy_to_string all_busy_states
let bdir_domain = "I" :: busy_strings
let pv_values = [ "zero"; "one"; "gone" ]
let pv_ops = [ "inc"; "dec"; "repl"; "drepl" ]
let lookup_values = [ "hit"; "miss" ]

(* Abstract presence-vector arithmetic over the zero/one/gone encoding.
   [gone] means "more than one sharer": decrementing it may leave one or
   many, so the abstraction conservatively stays at [gone] until an exact
   count is observable; the busy-directory pv column is what tracks the
   precise remaining-ack count in the protocol, and it is decremented with
   the same rules. *)
let apply_pv_op op pv =
  match op, pv with
  | "inc", "zero" -> Some "one"
  | "inc", ("one" | "gone") -> Some "gone"
  | "dec", "one" -> Some "zero"
  | "dec", "gone" -> Some "gone"
  | "dec", "zero" -> None
  | "repl", ("zero" | "one" | "gone") -> Some "one"
  | "drepl", "one" -> Some "one"
  | "drepl", "gone" -> Some "gone"
  | "drepl", "zero" -> None
  | _ -> None
