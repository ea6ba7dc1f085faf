(* Bit-packed state vectors for the explicit-state checker.

   A model state is encoded into an immutable int array: every symbolic
   field (directory state, busy state, cache state, pending op, message
   name) is already a small-int symbol ({!Mstate.sym}); each field maps
   it to a dense per-field code by one array load, written at a fixed
   width computed once per model from the field's cardinality plus one
   headroom bit.  Dedup then becomes a machine-word hash plus a
   word-by-word compare instead of a Marshal string and polymorphic
   structural equality, and the encoding is exactly invertible
   ([unpack]) so counterexample replay and MSC rendering still see
   ordinary {!Mstate.t} values.  No string is hashed per state.

   The encoding is injective on arbitrary states, not just reachable
   ones: message endpoints are written explicitly per message (even
   though reachable states keep them redundant with the channel key),
   option fields carry a presence bit, and channels are written in a
   canonical order.  Injectivity is what lets pack-equality stand in for
   structural equality in the visited set — the qcheck battery in
   test/test_pack.ml checks both directions.

   Node permutations are applied *during* encoding ([pack ?perm]), so
   symmetry reduction never materializes the permuted boxed state, and
   [canonical] encodes only the permutations that sort the nodes by an
   equivariant signature (scalarset normalisation, as in Murphi). *)

(* A field's code table, shared by a layout and its refreshes: codes
   are dense from 0 in first-seen order (seed order, then growth) and
   never change. *)
type codes = {
  mutable of_sym : int array;  (* symbol id -> code, -1 when unseen *)
  mutable syms : int array;  (* code -> symbol id *)
  mutable size : int;
}

type field = { codes : codes; width : int }

exception Overflow of string

let bits_needed n =
  (* bits to represent codes 0 .. n-1 (at least 1) *)
  let rec go acc m = if m <= 1 then max 1 acc else go (acc + 1) ((m + 1) / 2) in
  go 0 n

(* Only the main domain grows a table (the symbol table's rule): a
   layout seeded from the controller tables holds every symbol a search
   can reach, so workers only ever read. *)
let add_sym d s =
  if not (Domain.is_main_domain ()) then
    invalid_arg ("Pack: symbol " ^ Mstate.name s ^ " unseen by the layout");
  let c = d.size in
  if s >= Array.length d.of_sym then begin
    let a = Array.make (max 64 (2 * (s + 1))) (-1) in
    Array.blit d.of_sym 0 a 0 (Array.length d.of_sym);
    d.of_sym <- a
  end;
  if c >= Array.length d.syms then begin
    let a = Array.make (max 16 (2 * c)) 0 in
    Array.blit d.syms 0 a 0 c;
    d.syms <- a
  end;
  d.syms.(c) <- s;
  d.of_sym.(s) <- c;
  d.size <- c + 1;
  c

let lookup d s =
  if s >= 0 && s < Array.length d.of_sym then Array.unsafe_get d.of_sym s
  else -1

let width_of d = bits_needed (max 2 d.size) + 1

let field_of_seed seed =
  let d = { of_sym = [||]; syms = [||]; size = 0 } in
  List.iter
    (fun v ->
      let s = Mstate.intern v in
      if lookup d s < 0 then ignore (add_sym d s : int))
    seed;
  (* one headroom bit: the table may double before codes stop fitting,
     so a handful of late symbols never force a re-encode of the visited
     set *)
  { codes = d; width = width_of d }

(* The message classes are a closed set fixed by the channel structure,
   not a table: three bits, stable across every model, in this order. *)
let classes = Mstate.[| reqq; respq; snp; resp; ackq; memq |]
let w_cls = 3

(* class symbol -> class code; the class symbols are the first six ids *)
let cls_codes =
  let a = Array.make (1 + Array.fold_left max 0 classes) (-1) in
  Array.iteri (fun i s -> a.(s) <- i) classes;
  a

type layout = {
  nodes : int;
  addrs : int;
  f_dirst : field;
  f_bst : field;
  f_cache : field;
  f_pend : field;
  f_msg : field;
  w_ep : int;  (** endpoint, encoded as [e + 2] so dir/mem fit *)
  w_mask : int;  (** sharer/ack bitmask: one bit per node *)
  w_addr : int;
  w_qlen : int;
  w_qcount : int;
  id_perm : int array * int array;
}

let layout ~nodes ~addrs ~capacity ~dirst ~bst ~cache ~pend ~msg () =
  let identity = Array.init nodes Fun.id in
  {
    nodes;
    addrs;
    f_dirst = field_of_seed dirst;
    f_bst = field_of_seed bst;
    f_cache = field_of_seed cache;
    f_pend = field_of_seed pend;
    f_msg = field_of_seed msg;
    w_ep = bits_needed (nodes + 2);
    w_mask = max 1 nodes;
    w_addr = bits_needed (max 2 addrs);
    (* queues can transiently exceed the model capacity by one while a
       successor is being built, and a layout may be probed with states
       from slightly larger configs; one headroom bit covers both *)
    w_qlen = bits_needed (max 2 (capacity + 2)) + 1;
    w_qcount = bits_needed (max 2 (6 * (nodes + 2) * (nodes + 2))) + 1;
    id_perm = identity, identity;
  }

let refresh l =
  let grow f = { f with width = width_of f.codes } in
  {
    l with
    f_dirst = grow l.f_dirst;
    f_bst = grow l.f_bst;
    f_cache = grow l.f_cache;
    f_pend = grow l.f_pend;
    f_msg = grow l.f_msg;
  }

(* Symbol -> field code: one array load.  A symbol the seed missed gets
   the next code (main domain only) and raises once it outgrows the
   field width; callers then [refresh] into a wider layout. *)
let code what f s =
  let c = lookup f.codes s in
  let c = if c >= 0 then c else add_sym f.codes s in
  if c lsr f.width <> 0 then
    raise
      (Overflow
         (Printf.sprintf "%s %S: code %d needs more than %d bits" what
            (Mstate.name s) c f.width))
  else c

let cls_code s =
  let c = if s >= 0 && s < Array.length cls_codes then cls_codes.(s) else -1 in
  if c < 0 then raise (Overflow ("class " ^ Mstate.name s)) else c

(* --------------------------- bit stream -------------------------------
   62 payload bits per word keeps every shift strictly inside OCaml's
   63-bit native int, on both sides of a word boundary.  The writer
   keeps the open word in an accumulator and stores it once, when it
   fills; the buffer is sized for the whole state before the first
   [put], so a [put] is a range check, a shift-or and (once per word) a
   store. *)

let word_bits = 62
let word_mask = (1 lsl word_bits) - 1

type writer = {
  mutable buf : int array;
  mutable iw : int;  (* index of the open word *)
  mutable acc : int;  (* the open word's bits so far *)
  mutable ib : int;  (* bits used in the open word *)
  (* Canonical-scan cutoff.  While [cut_i >= 0], every word the writer
     completes is compared against the incumbent minimum [cut]: the
     moment a completed word is greater the whole encoding is provably
     greater (words are written most-significant-field first and never
     touched again once completed), so the pack aborts with {!Cut}; a
     smaller word decides the scan the other way and disables further
     compares ([cut_i <- -1]).  [-1] also means "no cutoff". *)
  mutable cut : int array;
  mutable cut_i : int;
}

exception Cut

let writer () = { buf = [||]; iw = 0; acc = 0; ib = 0; cut = [||]; cut_i = -1 }

let complete wr word =
  let i = wr.iw in
  wr.buf.(i) <- word;
  wr.iw <- i + 1;
  if wr.cut_i >= 0 && i < Array.length wr.cut then begin
    let b = Array.unsafe_get wr.cut i in
    if word > b then raise Cut
    else if word < b then wr.cut_i <- -1
    else wr.cut_i <- i + 1
  end

let too_wide v width =
  raise (Overflow (Printf.sprintf "value %d exceeds %d-bit field" v width))

let[@inline] put wr ~width v =
  (* [v lsr width] rather than [v >= 1 lsl width]: a 62-bit field (the
     sharer mask at 62 nodes) would shift into the sign bit *)
  if v < 0 || v lsr width <> 0 then too_wide v width;
  let ib = wr.ib in
  let acc = wr.acc lor (v lsl ib) in
  let nb = ib + width in
  if nb < word_bits then begin
    wr.acc <- acc;
    wr.ib <- nb
  end
  else begin
    (* the bits past the word boundary are [v]'s top [nb - word_bits] *)
    complete wr (acc land word_mask);
    wr.acc <- v lsr (word_bits - ib);
    wr.ib <- nb - word_bits
  end

(* Rewind for a state of [words] words, growing the buffer only when it
   is too short (a fresh writer gets exactly [words]). *)
let start wr words =
  if Array.length wr.buf < words then wr.buf <- Array.make words 0;
  wr.iw <- 0;
  wr.acc <- 0;
  wr.ib <- 0

(* Store the open partial word; the encoding is then [wr.buf.(0 ..
   words-1)]. *)
let close wr = if wr.ib > 0 then wr.buf.(wr.iw) <- wr.acc

type reader = { r_buf : int array; mutable r_bit : int }

let reader v = { r_buf = v; r_bit = 0 }

let get rd ~width =
  let iw = rd.r_bit / word_bits and ib = rd.r_bit mod word_bits in
  let lo = rd.r_buf.(iw) lsr ib land ((1 lsl width) - 1) in
  let v =
    if ib + width <= word_bits then lo
    else
      lo
      lor (rd.r_buf.(iw + 1) land ((1 lsl (ib + width - word_bits)) - 1))
          lsl (word_bits - ib)
  in
  rd.r_bit <- rd.r_bit + width;
  v

(* ------------------------------ encode ------------------------------- *)

let b2i b = if b then 1 else 0

let remap_mask m nodes mask =
  let acc = ref 0 in
  for j = 0 to nodes - 1 do
    if mask land (1 lsl j) <> 0 then acc := !acc lor (1 lsl m.(j))
  done;
  !acc

let remap_ep m e = if e >= 0 then m.(e) else e

(* The exact encoded length of [st] in words: the layout fixes every
   width, so only the channel and message counts vary. *)
let words_of l (st : Mstate.t) =
  let per_addr =
    l.f_dirst.width + l.w_mask + 1
    + (1 + l.f_bst.width + l.w_ep + (2 * l.w_mask) + 1)
  in
  let per_msg = l.f_msg.width + (2 * l.w_ep) + l.w_addr + 1 in
  let per_chan = (2 * l.w_ep) + w_cls + l.w_qlen in
  let rows = ref 0 in
  List.iteri
    (fun j row -> if j < l.nodes then rows := !rows + List.length row)
    st.caches;
  let pends = ref 0 in
  List.iteri
    (fun j row -> if j < l.nodes then pends := !pends + List.length row)
    st.pend;
  let chans = ref 0 and msgs = ref 0 in
  List.iter
    (fun (_, q) ->
      incr chans;
      msgs := !msgs + List.length q)
    st.queues;
  let bits =
    (List.length st.addrs * per_addr)
    + (!rows * l.f_cache.width)
    + (!pends * (1 + l.f_pend.width))
    + l.w_qcount + (!chans * per_chan) + (!msgs * per_msg)
  in
  max 1 ((bits + word_bits - 1) / word_bits)

let pack_into wr ?perm l (st : Mstate.t) =
  let m, minv = match perm with Some p -> p | None -> l.id_perm in
  start wr (words_of l st);
  let put_busy = function
    | None ->
        put wr ~width:1 0;
        put wr ~width:l.f_bst.width 0;
        put wr ~width:l.w_ep 0;
        put wr ~width:l.w_mask 0;
        put wr ~width:l.w_mask 0;
        put wr ~width:1 0
    | Some (b : Mstate.busy) ->
        put wr ~width:1 1;
        put wr ~width:l.f_bst.width (code "bst" l.f_bst b.bst);
        put wr ~width:l.w_ep (remap_ep m b.requester + 2);
        put wr ~width:l.w_mask (remap_mask m l.nodes b.acks);
        put wr ~width:l.w_mask (remap_mask m l.nodes b.snapshot);
        put wr ~width:1 (b2i b.data_fresh)
  in
  List.iter
    (fun (a : Mstate.addr_state) ->
      put wr ~width:l.f_dirst.width (code "dirst" l.f_dirst a.dirst);
      put wr ~width:l.w_mask (remap_mask m l.nodes a.sharers);
      put wr ~width:1 (b2i a.mem_fresh);
      put_busy a.busy)
    st.addrs;
  (* per-node rows, emitted in permuted order: output row i is the
     original row m⁻¹(i), matching Mstate.permute's reorder *)
  let caches = Array.of_list st.caches in
  let pend = Array.of_list st.pend in
  for i = 0 to l.nodes - 1 do
    List.iter
      (fun c -> put wr ~width:l.f_cache.width (code "cache" l.f_cache c))
      caches.(minv.(i))
  done;
  for i = 0 to l.nodes - 1 do
    List.iter
      (fun p ->
        match p with
        | None ->
            put wr ~width:1 0;
            put wr ~width:l.f_pend.width 0
        | Some op ->
            put wr ~width:1 1;
            put wr ~width:l.f_pend.width (code "pend" l.f_pend op))
      pend.(minv.(i))
  done;
  (* channels, in the canonical (src+2, dst+2, class-code) order after
     endpoint remapping: one int key per channel, insertion-sorted in
     place (a handful of channels, no list to allocate); message FIFO
     order is preserved *)
  let n = List.length st.queues in
  let keys = Array.make n 0 and qs = Array.make n [] in
  List.iteri
    (fun i ((src, dst, cls), q) ->
      let k =
        (((remap_ep m src + 2) lsl 7) lor (remap_ep m dst + 2)) lsl 3
        lor cls_code cls
      in
      let j = ref i in
      while !j > 0 && keys.(!j - 1) > k do
        keys.(!j) <- keys.(!j - 1);
        qs.(!j) <- qs.(!j - 1);
        decr j
      done;
      keys.(!j) <- k;
      qs.(!j) <- q)
    st.queues;
  put wr ~width:l.w_qcount n;
  for i = 0 to n - 1 do
    let k = keys.(i) in
    put wr ~width:l.w_ep (k lsr 10);
    put wr ~width:l.w_ep ((k lsr 3) land 127);
    put wr ~width:w_cls (k land 7);
    put wr ~width:l.w_qlen (List.length qs.(i));
    List.iter
      (fun (msg : Mstate.msg) ->
        put wr ~width:l.f_msg.width (code "msg" l.f_msg msg.m);
        put wr ~width:l.w_ep (remap_ep m msg.src + 2);
        put wr ~width:l.w_ep (remap_ep m msg.dst + 2);
        put wr ~width:l.w_addr msg.addr;
        put wr ~width:1 (b2i msg.fresh))
      qs.(i)
  done;
  close wr

let pack ?perm l st =
  let wr = writer () in
  pack_into wr ?perm l st;
  wr.buf

(* ------------------------------ decode ------------------------------- *)

let decode what f c =
  if c < f.codes.size then f.codes.syms.(c)
  else invalid_arg ("Pack.unpack: unknown " ^ what ^ " code")

let unpack l v : Mstate.t =
  let rd = reader v in
  let addrs =
    List.init l.addrs (fun _ ->
        let dirst = decode "dirst" l.f_dirst (get rd ~width:l.f_dirst.width) in
        let sharers = get rd ~width:l.w_mask in
        let mem_fresh = get rd ~width:1 = 1 in
        let present = get rd ~width:1 = 1 in
        let bst_c = get rd ~width:l.f_bst.width in
        let requester = get rd ~width:l.w_ep - 2 in
        let acks = get rd ~width:l.w_mask in
        let snapshot = get rd ~width:l.w_mask in
        let data_fresh = get rd ~width:1 = 1 in
        let busy =
          if not present then None
          else
            Some
              {
                Mstate.bst = decode "bst" l.f_bst bst_c;
                requester;
                acks;
                snapshot;
                data_fresh;
              }
        in
        { Mstate.dirst; sharers; busy; mem_fresh })
  in
  let caches =
    List.init l.nodes (fun _ ->
        List.init l.addrs (fun _ ->
            decode "cache" l.f_cache (get rd ~width:l.f_cache.width)))
  in
  let pend =
    List.init l.nodes (fun _ ->
        List.init l.addrs (fun _ ->
            let present = get rd ~width:1 = 1 in
            let c = get rd ~width:l.f_pend.width in
            if present then Some (decode "pend" l.f_pend c) else None))
  in
  let nchans = get rd ~width:l.w_qcount in
  let chans =
    List.init nchans (fun _ ->
        let src = get rd ~width:l.w_ep - 2 in
        let dst = get rd ~width:l.w_ep - 2 in
        let cls = classes.(get rd ~width:w_cls) in
        let qlen = get rd ~width:l.w_qlen in
        let q =
          List.init qlen (fun _ ->
              let mname = decode "msg" l.f_msg (get rd ~width:l.f_msg.width) in
              let msrc = get rd ~width:l.w_ep - 2 in
              let mdst = get rd ~width:l.w_ep - 2 in
              let maddr = get rd ~width:l.w_addr in
              let fresh = get rd ~width:1 = 1 in
              { Mstate.m = mname; src = msrc; dst = mdst; addr = maddr; fresh })
        in
        (src, dst, cls), q)
  in
  (* restore Mstate's invariant order: sorted by the raw (src, dst, cls)
     key — the canonical pack order agrees on endpoints but ranks
     classes by code, not by class symbol *)
  {
    addrs;
    caches;
    pend;
    queues = List.sort compare chans;
  }

(* --------------------------- word-level ops --------------------------- *)

let equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  go 0

(* Pure arithmetic — no per-process salt, no Domain state — so the same
   vector hashes identically on every domain and in every run. *)
let hash v =
  let h = ref 0x3ade68b1 in
  for i = 0 to Array.length v - 1 do
    let x = !h lxor Array.unsafe_get v i in
    let x = x * 0x2545F4914F6CDD1D land max_int in
    h := x lxor (x lsr 31)
  done;
  !h

let compare_packed a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i >= la then 0
      else
        let c = compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* ------------------------- canonical form ----------------------------

   Symmetry reduction keys a state by one representative of its
   node-permutation orbit.  Scanning all [nodes!] permutations for the
   least packed vector costs a pack per permutation; instead every node
   gets an integer signature that is {e equivariant} —
   [sig (π·s) (π j) = sig s j] — and only the permutations that list
   the nodes in non-decreasing signature order are candidates.  The
   permuted states those candidates produce are exactly the members of
   the orbit whose signatures come out sorted, a set that does not
   depend on which member we started from, so the least candidate
   vector is an orbit invariant; and being a packing of a permutation of
   [st], it separates orbits.  Reachable states rarely tie, so the scan
   is usually one pack.

   A node's signature mixes, per address, its sharer/ack/snapshot bits
   and whether it is the busy requester, then its cache and pending
   rows, then a hash of every channel it ends with each endpoint
   rewritten relative to it (itself, another node, dir or mem).
   Channel hashes are {e summed}: [Mstate.queues] is sorted by raw node
   labels, so list order is not equivariant.  Symbols mix as their ids,
   so signatures never touch the field codes. *)

let mix h x =
  let x = (h lxor x) * 0x2545F4914F6CDD1D land max_int in
  x lxor (x lsr 29)

let signatures l (st : Mstate.t) =
  let n = l.nodes in
  let sg = Array.make n 0 in
  List.iter
    (fun (a : Mstate.addr_state) ->
      let req, acks, snap =
        match a.busy with
        | None -> -1, 0, 0
        | Some b -> b.requester, b.acks, b.snapshot
      in
      for j = 0 to n - 1 do
        sg.(j) <-
          mix sg.(j)
            ((a.sharers lsr j) land 1
            lor (((acks lsr j) land 1) lsl 1)
            lor (((snap lsr j) land 1) lsl 2)
            lor (b2i (req = j) lsl 3))
      done)
    st.addrs;
  let rec caches j = function
    | row :: rows when j < n ->
        sg.(j) <- List.fold_left mix sg.(j) row;
        caches (j + 1) rows
    | _ -> ()
  in
  caches 0 st.caches;
  let rec pends j = function
    | row :: rows when j < n ->
        sg.(j) <-
          List.fold_left
            (fun h p -> mix h (match p with None -> 0 | Some op -> op + 1))
            sg.(j) row;
        pends (j + 1) rows
    | _ -> ()
  in
  pends 0 st.pend;
  let rel self e = if e = self then 0 else if e >= 0 then 1 else e + 4 in
  let rec msgs self h = function
    | [] -> h
    | (msg : Mstate.msg) :: q ->
        msgs self
          (mix
             (mix (mix (mix (mix h msg.m) (rel self msg.src)) (rel self msg.dst))
                msg.addr)
             (b2i msg.fresh))
          q
  in
  let channel self src dst cls q =
    msgs self (mix (mix (mix 0x3ade68b1 (rel self src)) (rel self dst)) cls) q
  in
  List.iter
    (fun ((src, dst, cls), q) ->
      if src >= 0 then sg.(src) <- sg.(src) + channel src src dst cls q;
      if dst >= 0 && dst <> src then
        sg.(dst) <- sg.(dst) + channel dst src dst cls q)
    st.queues;
  sg

(* One scratch writer serves every candidate: the encoded length of a
   state is permutation-invariant (same fields, same queue lengths), so
   candidates compare word-for-word in the scratch buffer and only the
   running minimum is ever copied out. *)
let canonical l st =
  let n = l.nodes in
  let sg = signatures l st in
  (* [order.(i)] is the node packed at position i (the inverse
     permutation) *)
  let order = Array.init n Fun.id in
  (* insertion sort: a handful of nodes, and no closure to allocate *)
  for i = 1 to n - 1 do
    let x = order.(i) in
    let j = ref i in
    while !j > 0 && sg.(order.(!j - 1)) > sg.(x) do
      order.(!j) <- order.(!j - 1);
      decr j
    done;
    order.(!j) <- x
  done;
  (* [tie_end.(i)]: one past the last position tying with position i *)
  let tie_end = Array.make n n in
  for i = n - 2 downto 0 do
    if sg.(order.(i)) <> sg.(order.(i + 1)) then tie_end.(i) <- i + 1
    else tie_end.(i) <- tie_end.(i + 1)
  done;
  let m = Array.make n 0 in
  let wr = writer () in
  let rec untied i = i >= n || (tie_end.(i) = i + 1 && untied (i + 1)) in
  if untied 0 then begin
    (* one candidate (the usual case): pack it in place, no copy *)
    Array.iteri (fun i j -> m.(j) <- i) order;
    pack_into wr ~perm:(m, order) l st;
    wr.buf
  end
  else
  let best = ref [||] in
  let candidate () =
    Array.iteri (fun i j -> m.(j) <- i) order;
    (* arm the writer's cutoff against the incumbent minimum: a losing
       candidate usually aborts on the first completed word (encoded
       length is permutation-invariant, so word-for-word compare
       against [best] is sound mid-pack) *)
    wr.cut <- !best;
    wr.cut_i <- (if Array.length !best = 0 then -1 else 0);
    match pack_into wr ~perm:(m, order) l st with
    | exception Cut -> wr.cut_i <- -1 (* provably greater: skip *)
    | () ->
        let words = Array.length wr.buf in
        let decided_smaller = Array.length !best > 0 && wr.cut_i < 0 in
        let tail_start = max 0 wr.cut_i in
        wr.cut_i <- -1;
        let better =
          Array.length !best = 0 || decided_smaller
          ||
          (* equal prefix up to the last complete word: compare the (at
             most one partial) tail *)
          let rec go i =
            if i >= words then false
            else
              let a = Array.unsafe_get wr.buf i
              and b = Array.unsafe_get !best i in
              if a < b then true else if a > b then false else go (i + 1)
          in
          go tail_start
        in
        if better then best := Array.copy wr.buf
  in
  (* every arrangement of each tie group, the rest of [order] fixed *)
  let swap i k =
    let t = order.(i) in
    order.(i) <- order.(k);
    order.(k) <- t
  in
  let rec arrange i =
    if i >= n then candidate ()
    else
      for k = i to tie_end.(i) - 1 do
        swap i k;
        arrange (i + 1);
        swap i k
      done
  in
  arrange 0;
  !best

(* --------------------------- visited set -----------------------------

   Open-addressing hash sets sharded 64 ways: the shard index comes from
   the low hash bits, the probe sequence from the high bits, and each
   shard carries its own lock, so concurrent inserts from stealing
   workers contend only when they land in the same shard.  In exact mode
   the packed vectors themselves are stored and compared word-by-word;
   with [compact_bits n] only an n-bit fingerprint of the hash survives
   (Stern–Dill hash compaction), which bounds memory at the cost of a
   fingerprint collision silently merging two distinct states — callers
   must report such searches as probabilistic. *)

module Vset = struct
  let shard_count = 64

  type shard = {
    lock : Mutex.t;
    mutable keys : int array array;  (** exact: [[||]] marks an empty slot *)
    mutable fps : int array;  (** compact: [0] marks an empty slot *)
    mutable count : int;
    mutable mask : int;
  }

  type t = { shards : shard array; compact : int option }

  let create ?compact_bits () =
    (match compact_bits with
    | Some n when n < 8 || n > 62 ->
        invalid_arg "Vset.create: compact_bits must be in 8..62"
    | _ -> ());
    let mk () =
      {
        lock = Mutex.create ();
        keys = (if compact_bits = None then Array.make 64 [||] else [||]);
        fps = (if compact_bits = None then [||] else Array.make 64 0);
        count = 0;
        mask = 63;
      }
    in
    { shards = Array.init shard_count (fun _ -> mk ()); compact = compact_bits }

  let probabilistic t = t.compact <> None

  let fingerprint bits h =
    let fp = (h lsr 6) land ((1 lsl bits) - 1) in
    if fp = 0 then 1 else fp

  let grow_exact s =
    let old = s.keys in
    let cap = 2 * Array.length old in
    s.keys <- Array.make cap [||];
    s.mask <- cap - 1;
    Array.iter
      (fun k ->
        if Array.length k > 0 then begin
          let i = ref (hash k lsr 6 land s.mask) in
          while Array.length s.keys.(!i) > 0 do
            i := (!i + 1) land s.mask
          done;
          s.keys.(!i) <- k
        end)
      old

  let grow_compact s =
    let old = s.fps in
    let cap = 2 * Array.length old in
    s.fps <- Array.make cap 0;
    s.mask <- cap - 1;
    Array.iter
      (fun fp ->
        if fp <> 0 then begin
          let i = ref (fp land s.mask) in
          while s.fps.(!i) <> 0 do
            i := (!i + 1) land s.mask
          done;
          s.fps.(!i) <- fp
        end)
      old

  (* [add t v] inserts and reports whether [v] was new. *)
  let add t v =
    let h = hash v in
    let si = h land (shard_count - 1) in
    let s = t.shards.(si) in
    Mutex.lock s.lock;
    let inserted =
      match t.compact with
      | None ->
          let rec probe i =
            let k = s.keys.(i) in
            if Array.length k = 0 then begin
              s.keys.(i) <- v;
              s.count <- s.count + 1;
              if 2 * s.count >= Array.length s.keys then begin
                grow_exact s;
                (* shard pressure: the open-addressing table doubled *)
                Obs.Flightrec.record ~tag:Obs.Flightrec.tag_compact ~a:si
                  ~b:(Array.length s.keys) ~c:0
              end;
              true
            end
            else if equal k v then false
            else probe ((i + 1) land s.mask)
          in
          probe (h lsr 6 land s.mask)
      | Some bits ->
          let fp = fingerprint bits h in
          let rec probe i =
            if s.fps.(i) = 0 then begin
              s.fps.(i) <- fp;
              s.count <- s.count + 1;
              if 2 * s.count >= Array.length s.fps then begin
                grow_compact s;
                Obs.Flightrec.record ~tag:Obs.Flightrec.tag_compact ~a:si
                  ~b:(Array.length s.fps) ~c:0
              end;
              true
            end
            else if s.fps.(i) = fp then false
            else probe ((i + 1) land s.mask)
          in
          probe (fp land s.mask)
    in
    Mutex.unlock s.lock;
    inserted

  let mem t v =
    let h = hash v in
    let s = t.shards.(h land (shard_count - 1)) in
    Mutex.lock s.lock;
    let found =
      match t.compact with
      | None ->
          let rec probe i =
            let k = s.keys.(i) in
            if Array.length k = 0 then false
            else if equal k v then true
            else probe ((i + 1) land s.mask)
          in
          probe (h lsr 6 land s.mask)
      | Some bits ->
          let fp = fingerprint bits h in
          let rec probe i =
            if s.fps.(i) = 0 then false
            else if s.fps.(i) = fp then true
            else probe ((i + 1) land s.mask)
          in
          probe (fp land s.mask)
    in
    Mutex.unlock s.lock;
    found

  let cardinal t =
    Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

  let iter t f =
    if t.compact <> None then
      invalid_arg "Vset.iter: compacted sets hold fingerprints, not states";
    Array.iter
      (fun s -> Array.iter (fun k -> if Array.length k > 0 then f k) s.keys)
      t.shards

  let words t =
    Array.fold_left
      (fun acc s ->
        acc + Array.length s.fps
        + Array.fold_left (fun a k -> a + 1 + Array.length k) 0 s.keys)
      0 t.shards
end
