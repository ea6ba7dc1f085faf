let dir = -1
let mem = -2

(* ---------------------------- symbol table ----------------------------

   Every symbolic field of a state is a small int naming a string in one
   process-wide table, so a state compares, hashes and packs as machine
   words.  [names] only ever grows by appending, on the main domain, and
   readers index the array they see: an id handed out is valid in every
   later (and the current) array, so [name] is safe from any domain. *)

type sym = int

let ids : (string, sym) Hashtbl.t = Hashtbl.create 256
let names : string array Atomic.t = Atomic.make [||]

let intern s =
  if not (Domain.is_main_domain ()) then
    invalid_arg ("Mstate.intern off the main domain: " ^ s);
  match Hashtbl.find_opt ids s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ids in
      let old = Atomic.get names in
      let arr =
        if i < Array.length old then old
        else Array.init (max 64 (2 * i)) (fun j -> if j < i then old.(j) else "")
      in
      arr.(i) <- s;
      Atomic.set names arr;
      Hashtbl.add ids s i;
      i

let find s = Hashtbl.find_opt ids s
let name i = (Atomic.get names).(i)

(* The six channel classes are interned first and in string order, so
   ordering queue keys by class id orders them exactly as the class
   strings would. *)
let ackq = intern "ackq"
let memq = intern "memq"
let reqq = intern "reqq"
let resp = intern "resp"
let respq = intern "respq"
let snp = intern "snp"

let s_I = intern "I"

type msg = { m : sym; src : int; dst : int; addr : int; fresh : bool }

type busy = {
  bst : sym;
  requester : int;
  acks : int;
  snapshot : int;
  data_fresh : bool;
}

type addr_state = {
  dirst : sym;
  sharers : int;
  busy : busy option;
  mem_fresh : bool;
}

type t = {
  addrs : addr_state list;
  caches : sym list list;
  pend : sym option list list;
  queues : ((int * int * sym) * msg list) list;
}

let initial ~nodes ~addrs =
  let addr0 = { dirst = s_I; sharers = 0; busy = None; mem_fresh = true } in
  {
    addrs = List.init addrs (fun _ -> addr0);
    caches = List.init nodes (fun _ -> List.init addrs (fun _ -> s_I));
    pend = List.init nodes (fun _ -> List.init addrs (fun _ -> None));
    queues = [];
  }

(* No_sharing matters for correctness, not just size: with sharing
   enabled the byte string depends on which of the (structurally equal)
   records and lists inside [t] are physically shared, so the same state
   reached through different rule firings could serialize differently
   and be visited twice.  The packed-vs-boxed differential suite catches
   exactly that: without this flag the boxed engine overcounts reachable
   states. *)
let key t = Marshal.to_string t [ Marshal.No_sharing ]

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

let permute m ~nodes t =
  let remap_mask mask =
    List.fold_left
      (fun acc j -> if mask land (1 lsl j) <> 0 then acc lor (1 lsl (m j)) else acc)
      0
      (List.init nodes Fun.id)
  in
  let remap_endpoint e = if e >= 0 then m e else e in
  let reorder l =
    (* new position (m j) holds old entry j *)
    let arr = Array.of_list l in
    let out = Array.make (Array.length arr) (Array.get arr 0) in
    List.iteri (fun j x -> out.(m j) <- x) (Array.to_list arr);
    ignore l;
    Array.to_list out
  in
  {
    addrs =
      List.map
        (fun a ->
          {
            a with
            sharers = remap_mask a.sharers;
            busy =
              Option.map
                (fun b ->
                  {
                    b with
                    requester = remap_endpoint b.requester;
                    acks = remap_mask b.acks;
                    snapshot = remap_mask b.snapshot;
                  })
                a.busy;
          })
        t.addrs;
    caches = reorder t.caches;
    pend = reorder t.pend;
    queues =
      List.sort compare
        (List.map
           (fun ((src, dst, cls), q) ->
             ( (remap_endpoint src, remap_endpoint dst, cls),
               List.map
                 (fun msg ->
                   { msg with src = remap_endpoint msg.src;
                     dst = remap_endpoint msg.dst })
                 q ))
           t.queues);
  }

let canonical_key ~nodes t =
  let ids = List.init nodes Fun.id in
  List.fold_left
    (fun best perm ->
      let arr = Array.of_list perm in
      let k = key (permute (fun j -> arr.(j)) ~nodes t) in
      match best with Some b when b <= k -> best | _ -> Some k)
    None (permutations ids)
  |> Option.get

(* [l] with element [i] replaced by [x] ([l] itself past its end) *)
let rec replace_nth l i x =
  match l with
  | [] -> []
  | y :: rest -> if i = 0 then x :: rest else y :: replace_nth rest (i - 1) x

(* [rows] with cell [j] of row [i] replaced by [x] *)
let rec replace_cell rows i j x =
  match rows with
  | [] -> []
  | row :: rest ->
      if i = 0 then replace_nth row j x :: rest
      else row :: replace_cell rest (i - 1) j x

(* the order of [queues]: source, destination, class id *)
let compare_key ((s, d, c) : int * int * sym) (s', d', c') =
  if s <> s' then Int.compare s s'
  else if d <> d' then Int.compare d d'
  else Int.compare c c'

let enqueue t ~cls msg =
  let k = msg.src, msg.dst, cls in
  let rec go = function
    | [] -> [ k, [ msg ] ]
    | ((k', q) as entry) :: rest ->
        let c = compare_key k' k in
        if c = 0 then (k, q @ [ msg ]) :: rest
        else if c > 0 then (k, [ msg ]) :: entry :: rest
        else entry :: go rest
  in
  { t with queues = go t.queues }

(* [queues] without the head message of channel [k]; a channel it
   empties is removed *)
let rec drop_head k = function
  | [] -> []
  | ((k', q) as entry) :: rest ->
      if compare_key k' k <> 0 then entry :: drop_head k rest
      else (
        match q with
        | [] | [ _ ] -> rest
        | _ :: q' -> (k', q') :: rest)

let rec head k = function
  | [] -> None
  | (k', q) :: rest ->
      if compare_key k' k <> 0 then head k rest
      else (match q with [] -> None | msg :: _ -> Some msg)

let dequeue t k =
  match head k t.queues with
  | None -> None
  | Some msg -> Some (msg, { t with queues = drop_head k t.queues })

let without_head t k = { t with queues = drop_head k t.queues }

let queue_heads t =
  List.filter_map
    (fun (k, q) -> match q with [] -> None | m :: _ -> Some (k, m))
    t.queues

let addr_state t a = List.nth t.addrs a
let set_addr t a st = { t with addrs = replace_nth t.addrs a st }
let cache t ~node ~addr = List.nth (List.nth t.caches node) addr

let set_cache t ~node ~addr st =
  { t with caches = replace_cell t.caches node addr st }

let pending t ~node ~addr = List.nth (List.nth t.pend node) addr

let set_pending t ~node ~addr op =
  { t with pend = replace_cell t.pend node addr op }

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

let iter_members f mask =
  let rec go i m =
    if m <> 0 then begin
      if m land 1 <> 0 then f i;
      go (i + 1) (m lsr 1)
    end
  in
  go 0 mask

let pv_values = [| "zero"; "one"; "gone" |]
let pv_index mask = min 2 (popcount mask)
let pv_encode mask = pv_values.(pv_index mask)

let quiescent t =
  t.queues = []
  && List.for_all (fun a -> a.busy = None) t.addrs
  && List.for_all (List.for_all Option.is_none) t.pend

let pp fmt t =
  let node_sets mask =
    let members = ref [] in
    iter_members (fun i -> members := string_of_int i :: !members) mask;
    String.concat "," (List.rev !members)
  in
  List.iteri
    (fun a st ->
      Format.fprintf fmt "addr %d: dir=%s sharers={%s}%s memfresh=%b@." a
        (name st.dirst) (node_sets st.sharers)
        (match st.busy with
        | None -> ""
        | Some b ->
            Printf.sprintf " busy=%s req=%d acks={%s}" (name b.bst) b.requester
              (node_sets b.acks))
        st.mem_fresh)
    t.addrs;
  List.iteri
    (fun n row ->
      Format.fprintf fmt "node %d: cache=[%s] pend=[%s]@." n
        (String.concat " " (List.map name row))
        (String.concat " "
           (List.map
              (function Some p -> name p | None -> "-")
              (List.nth t.pend n))))
    t.caches;
  List.iter
    (fun ((src, dst, cls), q) ->
      Format.fprintf fmt "queue %d->%d %s: %s@." src dst (name cls)
        (String.concat " "
           (List.map (fun m -> Printf.sprintf "%s(a%d)" (name m.m) m.addr) q)))
    t.queues
