let dir = -1
let mem = -2

type msg = { m : string; src : int; dst : int; addr : int; fresh : bool }

type busy = {
  bst : string;
  requester : int;
  acks : int;
  snapshot : int;
  data_fresh : bool;
}

type addr_state = {
  dirst : string;
  sharers : int;
  busy : busy option;
  mem_fresh : bool;
}

type t = {
  addrs : addr_state list;
  caches : string list list;
  pend : string option list list;
  queues : ((int * int * string) * msg list) list;
}

let initial ~nodes ~addrs =
  let addr0 = { dirst = "I"; sharers = 0; busy = None; mem_fresh = true } in
  {
    addrs = List.init addrs (fun _ -> addr0);
    caches = List.init nodes (fun _ -> List.init addrs (fun _ -> "I"));
    pend = List.init nodes (fun _ -> List.init addrs (fun _ -> None));
    queues = [];
  }

(* No_sharing matters for correctness, not just size: with sharing
   enabled the byte string depends on which of the (structurally equal)
   strings inside [t] are physically shared, so the same state reached
   through different rule firings could serialize differently and be
   visited twice.  The packed-vs-boxed differential suite caught exactly
   that: without this flag the boxed engine overcounts reachable
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

let update_nth l i f = List.mapi (fun j x -> if i = j then f x else x) l

let enqueue t ~cls msg =
  let k = msg.src, msg.dst, cls in
  let rec go = function
    | [] -> [ k, [ msg ] ]
    | ((k', q) as entry) :: rest ->
        if k' = k then (k, q @ [ msg ]) :: rest
        else if compare k' k > 0 then (k, [ msg ]) :: entry :: rest
        else entry :: go rest
  in
  { t with queues = go t.queues }

let dequeue t k =
  match List.assoc_opt k t.queues with
  | None | Some [] -> None
  | Some (msg :: rest) ->
      let queues =
        if rest = [] then List.remove_assoc k t.queues
        else List.map (fun (k', q) -> if k' = k then k', rest else k', q) t.queues
      in
      Some (msg, { t with queues })

let queue_heads t =
  List.filter_map
    (fun (k, q) -> match q with [] -> None | m :: _ -> Some (k, m))
    t.queues

let addr_state t a = List.nth t.addrs a
let set_addr t a st = { t with addrs = update_nth t.addrs a (fun _ -> st) }
let cache t ~node ~addr = List.nth (List.nth t.caches node) addr

let set_cache t ~node ~addr st =
  {
    t with
    caches = update_nth t.caches node (fun row -> update_nth row addr (fun _ -> st));
  }

let pending t ~node ~addr = List.nth (List.nth t.pend node) addr

let set_pending t ~node ~addr op =
  {
    t with
    pend = update_nth t.pend node (fun row -> update_nth row addr (fun _ -> op));
  }

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
        st.dirst (node_sets st.sharers)
        (match st.busy with
        | None -> ""
        | Some b ->
            Printf.sprintf " busy=%s req=%d acks={%s}" b.bst b.requester
              (node_sets b.acks))
        st.mem_fresh)
    t.addrs;
  List.iteri
    (fun n row ->
      Format.fprintf fmt "node %d: cache=[%s] pend=[%s]@." n
        (String.concat " " row)
        (String.concat " "
           (List.map (Option.value ~default:"-") (List.nth t.pend n))))
    t.caches;
  List.iter
    (fun ((src, dst, cls), q) ->
      Format.fprintf fmt "queue %d->%d %s: %s@." src dst cls
        (String.concat " " (List.map (fun m -> Printf.sprintf "%s(a%d)" m.m m.addr) q)))
    t.queues
