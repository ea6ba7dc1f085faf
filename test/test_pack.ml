(* Property battery for the bit-packed state representation (Mcheck.Pack).

   The packed visited set stands in for structural state equality in the
   exploration core, so the properties here are exactly the soundness
   obligations of that substitution: pack/unpack is an exact inverse
   over arbitrary (not just reachable) states, pack-equality coincides
   with structural equality in both directions, hashes are stable across
   domains, the permutation-during-encoding path agrees with
   Mstate.permute, and a dictionary growing past its field width fails
   loudly (Overflow) and recovers by layout refresh without invalidating
   vectors packed earlier. *)

open Mcheck

(* ------------------------- state generation -------------------------- *)

let dirst_names = [ "I"; "SI"; "MESI" ]
let bst_names = [ "I"; "Busy-read-sd"; "Busy-readex-sd"; "Busy-wb" ]
let cache_names = [ "I"; "S"; "E"; "M" ]
let pend_names = [ "read"; "write"; "wback"; "backoff:read"; "backoff:write" ]

let msg_names =
  [ "read"; "readex"; "wb"; "data"; "sdata"; "idone"; "mread"; "mdata" ]

(* the same vocabularies as symbols, interned while the suite is built
   (on the main domain) *)
let dirst_pool = List.map Mstate.intern dirst_names
let bst_pool = List.map Mstate.intern bst_names
let cache_pool = List.map Mstate.intern cache_names
let pend_pool = List.map Mstate.intern pend_names
let msg_pool = List.map Mstate.intern msg_names

let cls_pool =
  Mstate.[ reqq; respq; snp; resp; ackq; memq ]

let layout_for ~nodes ~addrs ~capacity =
  Pack.layout ~nodes ~addrs ~capacity ~dirst:dirst_names ~bst:bst_names
    ~cache:cache_names ~pend:pend_names ~msg:msg_names ()

(* Arbitrary well-formed states for a (nodes, addrs) shape: any field
   combination the Mstate type allows, with queues respecting the
   sorted-by-key / no-empty-FIFO invariant. *)
let state_gen ~nodes ~addrs ~capacity =
  QCheck.Gen.(
    let endpoint = map (fun e -> e - 2) (int_bound (nodes + 1)) in
    let mask = int_bound ((1 lsl nodes) - 1) in
    let busy_gen =
      let* bst = oneofl (List.filter (( <> ) (Mstate.intern "I")) bst_pool) in
      let* requester = endpoint in
      let* acks = mask in
      let* snapshot = mask in
      let* data_fresh = bool in
      return { Mstate.bst; requester; acks; snapshot; data_fresh }
    in
    let addr_gen =
      let* dirst = oneofl dirst_pool in
      let* sharers = mask in
      let* busy = opt busy_gen in
      let* mem_fresh = bool in
      return { Mstate.dirst; sharers; busy; mem_fresh }
    in
    let msg_gen =
      let* m = oneofl msg_pool in
      let* src = endpoint in
      let* dst = endpoint in
      let* addr = int_bound (addrs - 1) in
      let* fresh = bool in
      return { Mstate.m; src; dst; addr; fresh }
    in
    let channel_gen =
      let* src = endpoint in
      let* dst = endpoint in
      let* cls = oneofl cls_pool in
      let* len = int_range 1 capacity in
      let* q = list_repeat len msg_gen in
      return ((src, dst, cls), q)
    in
    let* addrs_l = list_repeat addrs addr_gen in
    let* caches = list_repeat nodes (list_repeat addrs (oneofl cache_pool)) in
    let* pend = list_repeat nodes (list_repeat addrs (opt (oneofl pend_pool))) in
    let* nchans = int_bound 4 in
    let* chans = list_repeat nchans channel_gen in
    (* dedup channel keys and restore the sorted-assoc invariant *)
    let chans =
      List.sort_uniq (fun (k, _) (k', _) -> compare k k') chans
    in
    return { Mstate.addrs = addrs_l; caches; pend; queues = chans })

let shape_gen =
  QCheck.Gen.(
    let* nodes = int_range 1 3 in
    let* addrs = int_range 1 2 in
    return (nodes, addrs))

let case_gen =
  QCheck.Gen.(
    let* nodes, addrs = shape_gen in
    let* st = state_gen ~nodes ~addrs ~capacity:3 in
    return (nodes, addrs, st))

let print_case (nodes, addrs, st) =
  Format.asprintf "nodes=%d addrs=%d@.%a" nodes addrs Mstate.pp st

let case_arb = QCheck.make case_gen ~print:print_case

(* ----------------------------- properties ----------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"pack/unpack round-trip is exact"
    case_arb (fun (nodes, addrs, st) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      Pack.unpack l (Pack.pack l st) = st)

let pair_gen =
  QCheck.Gen.(
    let* nodes, addrs = shape_gen in
    let* a = state_gen ~nodes ~addrs ~capacity:3 in
    let* dup = bool in
    let* b = if dup then return a else state_gen ~nodes ~addrs ~capacity:3 in
    return (nodes, addrs, a, b))

let prop_equality =
  QCheck.Test.make ~count:1000
    ~name:"pack-equality coincides with structural equality"
    (QCheck.make pair_gen ~print:(fun (n, a, s1, s2) ->
         print_case (n, a, s1) ^ "----\n" ^ print_case (n, a, s2)))
    (fun (nodes, addrs, a, b) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      let pa = Pack.pack l a and pb = Pack.pack l b in
      Pack.equal pa pb = (a = b)
      && (Pack.equal pa pb = (Pack.compare_packed pa pb = 0))
      && ((not (Pack.equal pa pb)) || Pack.hash pa = Pack.hash pb))

let prop_hash_stable_across_domains =
  QCheck.Test.make ~count:100
    ~name:"packed hashes identical from pool workers at 1/2/4 domains"
    (QCheck.make
       QCheck.Gen.(
         let* nodes, addrs = shape_gen in
         let* sts = list_repeat 8 (state_gen ~nodes ~addrs ~capacity:3) in
         return (nodes, addrs, sts))
       ~print:(fun (n, a, sts) ->
         Printf.sprintf "nodes=%d addrs=%d, %d states" n a (List.length sts)))
    (fun (nodes, addrs, sts) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      let packed = Array.of_list (List.map (Pack.pack l) sts) in
      let reference = Array.map Pack.hash packed in
      (* eight states sit below the small-work threshold: lift it so the
         chunks really run on pool workers *)
      let inline = Par.Pool.inline_below () in
      Par.Pool.set_inline_below 0;
      Fun.protect ~finally:(fun () -> Par.Pool.set_inline_below inline)
      @@ fun () ->
      List.for_all
        (fun d ->
          Par.Pool.with_domains d (fun () ->
              Array.concat
                (Array.to_list
                   (Par.Pool.map_chunks (Array.map Pack.hash) packed))
              = reference))
        [ 1; 2; 4 ])

let perm_gen nodes =
  QCheck.Gen.(
    let* shuffled = shuffle_l (List.init nodes Fun.id) in
    let m = Array.of_list shuffled in
    let inv = Array.make nodes 0 in
    Array.iteri (fun j mj -> inv.(mj) <- j) m;
    return (m, inv))

let prop_pack_perm =
  QCheck.Test.make ~count:500
    ~name:"pack ~perm equals pack of the permuted state"
    (QCheck.make
       QCheck.Gen.(
         let* nodes, addrs, st = case_gen in
         let* perm = perm_gen nodes in
         return (nodes, addrs, st, perm))
       ~print:(fun (n, a, st, (m, _)) ->
         Printf.sprintf "perm=[%s] %s"
           (String.concat ";" (Array.to_list (Array.map string_of_int m)))
           (print_case (n, a, st))))
    (fun (nodes, addrs, st, (m, inv)) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      Pack.equal
        (Pack.pack ~perm:(m, inv) l st)
        (Pack.pack l (Mstate.permute (fun j -> m.(j)) ~nodes st)))

let prop_canonical_orbit =
  QCheck.Test.make ~count:300
    ~name:"canonical packed vector constant on a permutation orbit"
    (QCheck.make
       QCheck.Gen.(
         let* nodes, addrs, st = case_gen in
         let* m, _ = perm_gen nodes in
         return (nodes, addrs, st, m))
       ~print:(fun (n, a, st, m) ->
         Printf.sprintf "perm=[%s] %s"
           (String.concat ";" (Array.to_list (Array.map string_of_int m)))
           (print_case (n, a, st))))
    (fun (nodes, addrs, st, m) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      Pack.equal (Pack.canonical l st)
        (Pack.canonical l (Mstate.permute (fun j -> m.(j)) ~nodes st)))

(* ------------------------- signature canonical form ------------------------

   [Pack.canonical] scans only the permutations that sort the node
   signatures, so constancy on an orbit (above) is half the obligation:
   the key must also separate orbits.  [Mstate.canonical_key], the
   all-permutations minimum over Marshal keys, is the oracle. *)

let all_perms nodes =
  let rec go = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x -> List.map (List.cons x) (go (List.filter (( <> ) x) l)))
          l
  in
  List.map Array.of_list (go (List.init nodes Fun.id))

let permute_by m ~nodes st = Mstate.permute (fun j -> m.(j)) ~nodes st

let other_than pool x = List.filter (( <> ) x) pool

(* A one-field change: the result is never structurally equal to [st],
   though it may still be a permutation of it. *)
let mutate_gen ~nodes ~addrs (st : Mstate.t) =
  QCheck.Gen.(
    let* node = int_bound (nodes - 1) in
    let* addr = int_bound (addrs - 1) in
    let set_addr f =
      { st with addrs = List.mapi (fun a x -> if a = addr then f x else x) st.addrs }
    in
    let* kind = int_bound 4 in
    match kind with
    | 0 ->
        let* c = oneofl (other_than cache_pool (Mstate.cache st ~node ~addr)) in
        return (Mstate.set_cache st ~node ~addr c)
    | 1 ->
        let* p =
          match Mstate.pending st ~node ~addr with
          | None -> map Option.some (oneofl pend_pool)
          | Some op ->
              oneofl (None :: List.map Option.some (other_than pend_pool op))
        in
        return (Mstate.set_pending st ~node ~addr p)
    | 2 ->
        return
          (set_addr (fun a -> { a with sharers = a.sharers lxor (1 lsl node) }))
    | 3 -> return (set_addr (fun a -> { a with mem_fresh = not a.mem_fresh }))
    | _ ->
        return
          (set_addr (fun a ->
               match a.busy with
               | Some _ -> { a with busy = None }
               | None ->
                   {
                     a with
                     busy =
                       Some
                         { Mstate.bst = Mstate.intern "Busy-wb"; requester = node; acks = 0;
                           snapshot = 0; data_fresh = true };
                   })))

(* Arbitrary states rarely tie two nodes that a permutation cannot
   exchange, which is where scanning every arrangement of a tie group
   matters.  This variant gives every node node 0's rows and every mask
   all or no nodes, so only the channels tell nodes apart. *)
let tied_state_gen ~nodes ~addrs ~capacity =
  QCheck.Gen.(
    let* st = state_gen ~nodes ~addrs ~capacity in
    let all = (1 lsl nodes) - 1 in
    let widen m = if m = 0 then 0 else all in
    let row rows = List.init nodes (fun _ -> List.hd rows) in
    return
      {
        st with
        Mstate.addrs =
          List.map
            (fun (a : Mstate.addr_state) ->
              {
                a with
                sharers = widen a.sharers;
                busy =
                  Option.map
                    (fun (b : Mstate.busy) ->
                      { b with requester = Mstate.dir; acks = widen b.acks;
                        snapshot = widen b.snapshot })
                    a.busy;
              })
            st.addrs;
        caches = row st.caches;
        pend = row st.pend;
      })

let some_state_gen ~nodes ~addrs ~capacity =
  QCheck.Gen.(
    let* tied = bool in
    (if tied then tied_state_gen else state_gen) ~nodes ~addrs ~capacity)

let orbit_pair_gen =
  QCheck.Gen.(
    let* nodes = int_range 3 4 in
    let* addrs = int_range 1 2 in
    let* a = some_state_gen ~nodes ~addrs ~capacity:2 in
    let* same = bool in
    let* b = if same then return a else mutate_gen ~nodes ~addrs a in
    let* m, _ = perm_gen nodes in
    return (nodes, addrs, a, permute_by m ~nodes b))

let prop_canonical_separates =
  QCheck.Test.make ~count:400
    ~name:"canonical vectors agree iff Mstate.canonical_key agrees (3-4 nodes)"
    (QCheck.make orbit_pair_gen ~print:(fun (n, a, s1, s2) ->
         print_case (n, a, s1) ^ "----\n" ^ print_case (n, a, s2)))
    (fun (nodes, addrs, a, b) ->
      let l = layout_for ~nodes ~addrs ~capacity:2 in
      Pack.equal (Pack.canonical l a) (Pack.canonical l b)
      = (Mstate.canonical_key ~nodes a = Mstate.canonical_key ~nodes b))

let perm_case_gen =
  QCheck.Gen.(
    let* nodes = int_range 1 4 in
    let* addrs = int_range 1 2 in
    let* st = some_state_gen ~nodes ~addrs ~capacity:3 in
    let* m, _ = perm_gen nodes in
    return (nodes, addrs, st, m))

let print_perm_case (n, a, st, m) =
  Printf.sprintf "perm=[%s] %s"
    (String.concat ";" (Array.to_list (Array.map string_of_int m)))
    (print_case (n, a, st))

let prop_signatures_equivariant =
  QCheck.Test.make ~count:500 ~name:"node signatures are equivariant"
    (QCheck.make perm_case_gen ~print:print_perm_case)
    (fun (nodes, addrs, st, m) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      let sg = Pack.signatures l st
      and sg' = Pack.signatures l (permute_by m ~nodes st) in
      List.for_all (fun j -> sg'.(m.(j)) = sg.(j)) (List.init nodes Fun.id))

let sorted a =
  let ok = ref true in
  Array.iteri (fun i x -> if i > 0 && a.(i - 1) > x then ok := false) a;
  !ok

(* The definition, by brute force: the least packed vector among the
   permuted states whose signatures come out sorted. *)
let least_sorted_candidate l ~nodes st =
  List.fold_left
    (fun best m ->
      let st' = permute_by m ~nodes st in
      if not (sorted (Pack.signatures l st')) then best
      else
        let v = Pack.pack l st' in
        match best with
        | Some b when Pack.compare_packed b v <= 0 -> best
        | _ -> Some v)
    None (all_perms nodes)
  |> Option.get

let prop_canonical_least_candidate =
  QCheck.Test.make ~count:300
    ~name:"canonical is the least signature-sorted permutation"
    (QCheck.make perm_case_gen ~print:print_perm_case)
    (fun (nodes, addrs, st, _) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      Pack.equal (Pack.canonical l st) (least_sorted_candidate l ~nodes st))

let distinct_signatures sg =
  List.length (List.sort_uniq compare (Array.to_list sg))

let check_orbit_constant l ~nodes st =
  let c = Pack.canonical l st in
  Alcotest.(check bool)
    "least sorted candidate" true
    (Pack.equal c (least_sorted_candidate l ~nodes st));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        "same canonical vector on every permutation" true
        (Pack.equal c (Pack.canonical l (permute_by m ~nodes st))))
    (all_perms nodes)

let test_all_nodes_tie () =
  let l = layout_for ~nodes:3 ~addrs:1 ~capacity:2 in
  let st = Mstate.initial ~nodes:3 ~addrs:1 in
  Alcotest.(check int) "one signature" 1 (distinct_signatures (Pack.signatures l st));
  (* every permutation fixes the initial state *)
  Alcotest.(check bool)
    "canonical is the identity packing" true
    (Pack.equal (Pack.canonical l st) (Pack.pack l st));
  check_orbit_constant l ~nodes:3 st

(* All three nodes tie, yet only the rotations fix the state: the
   reflections turn the request cycle 0→1→2→0 around. *)
let test_tie_without_symmetry () =
  let l = layout_for ~nodes:3 ~addrs:1 ~capacity:2 in
  let st =
    List.fold_left
      (fun st (src, dst) ->
        Mstate.enqueue st ~cls:Mstate.reqq
          { Mstate.m = Mstate.intern "read"; src; dst; addr = 0; fresh = true })
      (Mstate.initial ~nodes:3 ~addrs:1)
      [ 0, 1; 1, 2; 2, 0 ]
  in
  Alcotest.(check int) "one signature" 1 (distinct_signatures (Pack.signatures l st));
  let swapped = permute_by [| 1; 0; 2 |] ~nodes:3 st in
  Alcotest.(check bool)
    "a reflection packs differently" false
    (Pack.equal (Pack.pack l st) (Pack.pack l swapped));
  check_orbit_constant l ~nodes:3 st

let test_two_nodes_tie () =
  let l = layout_for ~nodes:3 ~addrs:1 ~capacity:2 in
  let st = Mstate.initial ~nodes:3 ~addrs:1 in
  let s = Mstate.intern "S" in
  let st = Mstate.set_cache st ~node:0 ~addr:0 s in
  let st = Mstate.set_cache st ~node:2 ~addr:0 s in
  let st =
    Mstate.set_addr st 0
      { (Mstate.addr_state st 0) with dirst = Mstate.intern "SI"; sharers = 0b101 }
  in
  let sg = Pack.signatures l st in
  Alcotest.(check int) "two signatures" 2 (distinct_signatures sg);
  Alcotest.(check bool) "nodes 0 and 2 tie" true (sg.(0) = sg.(2));
  check_orbit_constant l ~nodes:3 st

(* Width-recomputation safety: a layout seeded with a tiny vocabulary is
   fed states drawing from the full pool.  Either every string fits in
   the headroom bit, or packing raises Overflow; [refresh] then widens
   the field and the retry makes progress (pack aborts at the *first*
   oversized string, so one refresh per overflow, monotone in the dict
   size, terminates).  Vectors packed before any growth still decode
   through the *old* layout value — dicts are append-only and widths are
   per-layout. *)
let prop_width_recompute =
  QCheck.Test.make ~count:300
    ~name:"dictionary growth past the field width: Overflow then refresh"
    case_arb (fun (nodes, addrs, st) ->
      let tiny =
        Pack.layout ~nodes ~addrs ~capacity:3 ~dirst:[ "I" ] ~bst:[ "I" ]
          ~cache:[ "I" ] ~pend:[ "read" ] ~msg:[ "read" ] ()
      in
      let baseline = Mstate.initial ~nodes ~addrs in
      let v0 = Pack.pack tiny baseline in
      let rec pack_growing l fuel =
        match Pack.pack l st with
        | v -> Pack.unpack l v = st
        | exception Pack.Overflow _ when fuel > 0 ->
            pack_growing (Pack.refresh l) (fuel - 1)
      in
      (* every overflow interns the offending string before raising, so
         the dict grows each round: 64 rounds dwarfs the vocabulary *)
      pack_growing tiny 64
      (* growth must never disturb vectors packed under the old widths *)
      && Pack.unpack tiny v0 = baseline
      && Pack.equal v0 (Pack.pack tiny baseline))

(* The visited set itself: adds deduplicate exactly in exact mode, and
   the compacted variant stays sound for re-adds of the same state. *)
let prop_vset =
  QCheck.Test.make ~count:300 ~name:"Vset add/mem agree with packed equality"
    (QCheck.make
       QCheck.Gen.(
         let* nodes, addrs = shape_gen in
         let* sts = list_repeat 12 (state_gen ~nodes ~addrs ~capacity:2) in
         return (nodes, addrs, sts))
       ~print:(fun (n, a, sts) ->
         Printf.sprintf "nodes=%d addrs=%d, %d states" n a (List.length sts)))
    (fun (nodes, addrs, sts) ->
      let l = layout_for ~nodes ~addrs ~capacity:2 in
      let packed = List.map (Pack.pack l) sts in
      let distinct =
        List.sort_uniq Pack.compare_packed packed |> List.length
      in
      let vs = Pack.Vset.create () in
      let inserted =
        List.fold_left
          (fun n v -> if Pack.Vset.add vs v then n + 1 else n)
          0 packed
      in
      let compact = Pack.Vset.create ~compact_bits:30 () in
      inserted = distinct
      && Pack.Vset.cardinal vs = distinct
      && List.for_all (Pack.Vset.mem vs) packed
      && List.for_all
           (fun v ->
             ignore (Pack.Vset.add compact v : bool);
             not (Pack.Vset.add compact v))
           packed)

(* The encoding pinned bit for bit: the packed visited set of the 2-node
   all-ops search (no symmetry), as a count and two order-independent
   digests of {!Pack.hash} (wrapping sum and xor) plus the total word
   count.  The figures were recorded with a string-keyed encoder of the
   same layout; any change to field order, widths, code assignment or
   channel order moves them. *)
module Visited = Hashtbl.Make (struct
  type t = int array

  let equal = Pack.equal
  let hash = Pack.hash
end)

let test_visited_set_digest () =
  let tables = Semantics.load_tables () in
  let indexed = Semantics.index_tables tables in
  let cfg =
    { Semantics.nodes = 2; addrs = 1;
      ops = [ "load"; "store"; "evictmod"; "evictsh" ];
      capacity = 3; io_addrs = []; lossy = false }
  in
  let layout = Explore.layout_of_tables tables cfg in
  let visited = Visited.create 4096 in
  let queue = Queue.create () in
  let visit st =
    let v = Pack.pack layout st in
    if not (Visited.mem visited v) then begin
      Visited.add visited v ();
      Queue.add st queue
    end
  in
  visit (Mstate.initial ~nodes:2 ~addrs:1);
  while not (Queue.is_empty queue) do
    List.iter
      (function
        | _, Semantics.Next st -> visit st
        | _, Semantics.Broken r -> Alcotest.fail r)
      (Semantics.successors ~labels:false indexed cfg (Queue.take queue))
  done;
  let sum = ref 0 and xor = ref 0 and words = ref 0 in
  Visited.iter
    (fun v () ->
      sum := !sum + Pack.hash v;
      xor := !xor lxor Pack.hash v;
      words := !words + Array.length v)
    visited;
  Alcotest.(check int) "vectors" 16_188 (Visited.length visited);
  Alcotest.(check int) "hash sum" (-4205316499339850594) !sum;
  Alcotest.(check int) "hash xor" 151743013724663208 !xor;
  Alcotest.(check int) "words" 37_846 !words

(* ------------------------- scratch writer -------------------------

   The engine keys every successor through one writer per search
   participant and hands [(buffer, len)] to the visited set, which
   copies a vector only when it inserts it.  The scratch path must
   produce exactly the words of the allocating wrappers, whatever the
   writer packed before, and must allocate nothing once grown. *)

let scratch_words wr n = Array.sub (Pack.buffer wr) 0 n

(* one writer across every case: shapes, lengths and tie patterns vary
   from case to case, so stale scratch would show *)
let shared_writer = Pack.writer ()

let prop_scratch_keys =
  QCheck.Test.make ~count:500
    ~name:"scratch pack_into/canonical_into equal pack/canonical"
    (QCheck.make perm_case_gen ~print:print_perm_case)
    (fun (nodes, addrs, st, m) ->
      let l = layout_for ~nodes ~addrs ~capacity:3 in
      let wr = shared_writer in
      let inv = Array.make nodes 0 in
      Array.iteri (fun j mj -> inv.(mj) <- j) m;
      let packed = scratch_words wr (Pack.pack_into wr l st) in
      let permuted = scratch_words wr (Pack.pack_into wr ~perm:(m, inv) l st) in
      let canonical = scratch_words wr (Pack.canonical_into wr l st) in
      Pack.equal packed (Pack.pack l st)
      && Pack.equal permuted (Pack.pack ~perm:(m, inv) l st)
      && Pack.equal canonical (Pack.canonical l st))

let prop_add_words =
  QCheck.Test.make ~count:300
    ~name:"Vset.add_words agrees with add, exact and compact"
    (QCheck.make
       QCheck.Gen.(
         let* nodes, addrs = shape_gen in
         let* sts = list_repeat 12 (state_gen ~nodes ~addrs ~capacity:2) in
         let* pad = int_range 0 3 in
         return (nodes, addrs, sts, pad))
       ~print:(fun (n, a, sts, pad) ->
         Printf.sprintf "nodes=%d addrs=%d, %d states, pad %d" n a
           (List.length sts) pad))
    (fun (nodes, addrs, sts, pad) ->
      let l = layout_for ~nodes ~addrs ~capacity:2 in
      (* every state twice, so half the adds are dedup hits *)
      let packed = List.map (Pack.pack l) (sts @ sts) in
      List.for_all
        (fun compact_bits ->
          let by_add = Pack.Vset.create ?compact_bits ()
          and by_words = Pack.Vset.create ?compact_bits () in
          List.for_all
            (fun v ->
              (* words past [len] must not matter *)
              let buf = Array.append v (Array.make pad (-1)) in
              Pack.Vset.add by_add v
              = Pack.Vset.add_words by_words buf (Array.length v)
              && Pack.Vset.mem by_words v)
            packed
          && Pack.Vset.cardinal by_add = Pack.Vset.cardinal by_words)
        [ None; Some 30 ])

(* [Gc.minor_words] around [f ()], less what the two probes allocate
   themselves (measured back to back) *)
let minor_words_of f =
  let probe_cost =
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    w1 -. w0
  in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0 -. probe_cost

(* A 3-node state whose nodes all play different roles (no signature
   tie) with messages in flight, so every part of the encoder runs. *)
let untied_state () =
  let st = Mstate.initial ~nodes:3 ~addrs:1 in
  let st = Mstate.set_cache st ~node:0 ~addr:0 (Mstate.intern "S") in
  let st = Mstate.set_cache st ~node:1 ~addr:0 (Mstate.intern "M") in
  let st = Mstate.set_pending st ~node:2 ~addr:0 (Some (Mstate.intern "read")) in
  List.fold_left
    (fun st (cls, src, dst) ->
      Mstate.enqueue st ~cls
        { Mstate.m = Mstate.intern "read"; src; dst; addr = 0; fresh = true })
    st
    [ Mstate.reqq, 2, Mstate.dir; Mstate.snp, Mstate.dir, 1; Mstate.snp, Mstate.dir, 0 ]

let test_scratch_allocates_nothing () =
  let l = layout_for ~nodes:3 ~addrs:1 ~capacity:3 in
  let st = untied_state () in
  Alcotest.(check int) "three signatures" 3 (distinct_signatures (Pack.signatures l st));
  let wr = Pack.writer () in
  let vs = Pack.Vset.create () in
  (* grow the scratch and insert the vector once *)
  let n = Pack.canonical_into wr l st in
  Alcotest.(check bool) "first add inserts" true
    (Pack.Vset.add_words vs (Pack.buffer wr) n);
  ignore (Pack.pack_into wr l st : int);
  let check what f =
    Alcotest.(check (float 0.))
      (what ^ ": minor words per 10k calls") 0.
      (minor_words_of (fun () ->
           for _ = 1 to 10_000 do
             f ()
           done))
  in
  check "pack_into" (fun () -> ignore (Pack.pack_into wr l st : int));
  check "canonical_into, untied" (fun () ->
      ignore (Pack.canonical_into wr l st : int));
  let n = Pack.canonical_into wr l st in
  check "add_words of a present vector" (fun () ->
      ignore (Pack.Vset.add_words vs (Pack.buffer wr) n : bool))

(* The allocation budget of the engine's expansion step, pinned where
   it is deterministic: one domain, one participant.  About 470 minor
   words per explored state when pinned; the bound leaves about 25 %
   headroom. *)
let test_expansion_allocation () =
  let tables = Semantics.load_tables () in
  let cfg =
    { Semantics.nodes = 2; addrs = 1;
      ops = [ "load"; "store"; "evictmod"; "evictsh" ];
      capacity = 3; io_addrs = []; lossy = false }
  in
  Par.Pool.with_domains 1 (fun () ->
      (* the first search builds the cached dispatch and layout *)
      ignore (Explore.run ~tables cfg : Explore.result);
      let r = ref None in
      let words = minor_words_of (fun () -> r := Some (Explore.run ~tables cfg)) in
      let r = Option.get !r in
      Alcotest.(check int) "explored" 16_188 r.explored;
      let per_state = words /. float_of_int r.explored in
      if per_state > 590. then
        Alcotest.failf "%.0f minor words per explored state (bound 590)" per_state)

let suite =
  [
    Test_seed.to_alcotest prop_roundtrip;
    Test_seed.to_alcotest prop_equality;
    Test_seed.to_alcotest prop_hash_stable_across_domains;
    Test_seed.to_alcotest prop_pack_perm;
    Test_seed.to_alcotest prop_canonical_orbit;
    Test_seed.to_alcotest prop_width_recompute;
    Test_seed.to_alcotest prop_vset;
    Test_seed.to_alcotest prop_canonical_separates;
    Test_seed.to_alcotest prop_signatures_equivariant;
    Test_seed.to_alcotest prop_canonical_least_candidate;
    Alcotest.test_case "canonical: all three nodes tie" `Quick test_all_nodes_tie;
    Alcotest.test_case "canonical: exactly two nodes tie" `Quick test_two_nodes_tie;
    Alcotest.test_case "canonical: a tie no permutation exchanges" `Quick
      test_tie_without_symmetry;
    Alcotest.test_case "2-node visited set: golden digest" `Quick
      test_visited_set_digest;
    Test_seed.to_alcotest prop_scratch_keys;
    Test_seed.to_alcotest prop_add_words;
    Alcotest.test_case "scratch keying allocates nothing" `Quick
      test_scratch_allocates_nothing;
    Alcotest.test_case "expansion: minor words per state at one domain" `Quick
      test_expansion_allocation;
  ]
