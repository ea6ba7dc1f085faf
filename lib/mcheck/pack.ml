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

(* A writer is the whole scratch of one encoder: the word buffer plus
   every array a pack or a canonical scan needs, each grown on demand
   and reused, so a participant that owns one writer keys a state
   without allocating.  The buffer may be longer than the encoding: an
   encoding is [buf.(0 .. n-1)] for the [n] the encode call returns. *)
type writer = {
  mutable buf : int array;
  mutable iw : int;  (* index of the open word *)
  mutable acc : int;  (* the open word's bits so far *)
  mutable ib : int;  (* bits used in the open word *)
  (* Canonical-scan cutoff.  While [cut_i >= 0], every word the writer
     completes is compared against the incumbent minimum [best]: the
     moment a completed word is greater the whole encoding is provably
     greater (words are written most-significant-field first and never
     touched again once completed), so the pack aborts with {!Cut}; a
     smaller word decides the scan the other way and disables further
     compares ([cut_i <- -1]).  [-1] also means "no cutoff". *)
  mutable cut_i : int;
  mutable best : int array;
  mutable best_len : int;  (* 0 while the scan has no incumbent *)
  (* channel sort: one int key per channel and its FIFO, in key order *)
  mutable keys : int array;
  mutable qs : Mstate.msg list array;
  (* per-node rows, indexed by original node *)
  mutable cache_rows : Mstate.sym list array;
  mutable pend_rows : Mstate.sym option list array;
  (* canonical scan: signatures, the packing order, tie groups and the
     permutation the order induces *)
  mutable sg : int array;
  mutable order : int array;
  mutable tie_end : int array;
  mutable perm : int array;
}

exception Cut

let writer () =
  {
    buf = [||]; iw = 0; acc = 0; ib = 0; cut_i = -1; best = [||]; best_len = 0;
    keys = [||]; qs = [||]; cache_rows = [||]; pend_rows = [||]; sg = [||];
    order = [||]; tie_end = [||]; perm = [||];
  }

let buffer wr = wr.buf

let complete wr word =
  let i = wr.iw in
  wr.buf.(i) <- word;
  wr.iw <- i + 1;
  if wr.cut_i >= 0 then begin
    let b = wr.best.(i) in
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

(* Scratch for [n] nodes and [chans] channels. *)
let reserve wr ~n ~chans =
  if Array.length wr.cache_rows < n then begin
    wr.cache_rows <- Array.make n [];
    wr.pend_rows <- Array.make n [];
    wr.sg <- Array.make n 0;
    wr.order <- Array.make n 0;
    wr.tie_end <- Array.make n 0;
    wr.perm <- Array.make n 0
  end;
  if Array.length wr.keys < chans then begin
    let cap = max 8 (2 * chans) in
    wr.keys <- Array.make cap 0;
    wr.qs <- Array.make cap []
  end

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

(* ------------------------------ encode -------------------------------
   Every walk over a state's lists is a top-level recursion taking what
   it needs as arguments: a local closure over the writer would be
   allocated on every call. *)

let b2i b = if b then 1 else 0

let remap_mask m nodes mask =
  let acc = ref 0 in
  for j = 0 to nodes - 1 do
    if mask land (1 lsl j) <> 0 then acc := !acc lor (1 lsl m.(j))
  done;
  !acc

let remap_ep m e = if e >= 0 then m.(e) else e

(* cells in the first [n] rows *)
let rec row_cells n j acc = function
  | row :: rows when j < n -> row_cells n (j + 1) (acc + List.length row) rows
  | _ -> acc

let rec queued acc = function
  | [] -> acc
  | (_, q) :: rest -> queued (acc + List.length q) rest

(* The exact encoded length of [st] in words: the layout fixes every
   width, so only the channel and message counts vary. *)
let words_of l (st : Mstate.t) =
  let per_addr =
    l.f_dirst.width + l.w_mask + 1
    + (1 + l.f_bst.width + l.w_ep + (2 * l.w_mask) + 1)
  in
  let per_msg = l.f_msg.width + (2 * l.w_ep) + l.w_addr + 1 in
  let per_chan = (2 * l.w_ep) + w_cls + l.w_qlen in
  let bits =
    (List.length st.addrs * per_addr)
    + (row_cells l.nodes 0 0 st.caches * l.f_cache.width)
    + (row_cells l.nodes 0 0 st.pend * (1 + l.f_pend.width))
    + l.w_qcount
    + (List.length st.queues * per_chan)
    + (queued 0 st.queues * per_msg)
  in
  max 1 ((bits + word_bits - 1) / word_bits)

let rec put_addrs wr l m = function
  | [] -> ()
  | (a : Mstate.addr_state) :: rest ->
      put wr ~width:l.f_dirst.width (code "dirst" l.f_dirst a.dirst);
      put wr ~width:l.w_mask (remap_mask m l.nodes a.sharers);
      put wr ~width:1 (b2i a.mem_fresh);
      (match a.busy with
      | None ->
          put wr ~width:1 0;
          put wr ~width:l.f_bst.width 0;
          put wr ~width:l.w_ep 0;
          put wr ~width:l.w_mask 0;
          put wr ~width:l.w_mask 0;
          put wr ~width:1 0
      | Some b ->
          put wr ~width:1 1;
          put wr ~width:l.f_bst.width (code "bst" l.f_bst b.bst);
          put wr ~width:l.w_ep (remap_ep m b.requester + 2);
          put wr ~width:l.w_mask (remap_mask m l.nodes b.acks);
          put wr ~width:l.w_mask (remap_mask m l.nodes b.snapshot);
          put wr ~width:1 (b2i b.data_fresh));
      put_addrs wr l m rest

(* [rows.(j)] <- row j, for the first [n] rows; the rows stored *)
let rec store_rows rows n j = function
  | row :: rest when j < n ->
      rows.(j) <- row;
      store_rows rows n (j + 1) rest
  | _ -> j

let rec put_cache_row wr l = function
  | [] -> ()
  | c :: rest ->
      put wr ~width:l.f_cache.width (code "cache" l.f_cache c);
      put_cache_row wr l rest

let rec put_pend_row wr l = function
  | [] -> ()
  | None :: rest ->
      put wr ~width:1 0;
      put wr ~width:l.f_pend.width 0;
      put_pend_row wr l rest
  | Some op :: rest ->
      put wr ~width:1 1;
      put wr ~width:l.f_pend.width (code "pend" l.f_pend op);
      put_pend_row wr l rest

(* Channels in the canonical (src+2, dst+2, class-code) order after
   endpoint remapping: one int key per channel, insertion-sorted into
   the writer's key array (a handful of channels); message FIFO order is
   preserved. *)
let rec sort_chans wr m i = function
  | [] -> ()
  | ((src, dst, cls), q) :: rest ->
      let k =
        (((remap_ep m src + 2) lsl 7) lor (remap_ep m dst + 2)) lsl 3
        lor cls_code cls
      in
      let keys = wr.keys and qs = wr.qs in
      let j = ref i in
      while !j > 0 && keys.(!j - 1) > k do
        keys.(!j) <- keys.(!j - 1);
        qs.(!j) <- qs.(!j - 1);
        decr j
      done;
      keys.(!j) <- k;
      qs.(!j) <- q;
      sort_chans wr m (i + 1) rest

let rec put_msgs wr l m = function
  | [] -> ()
  | (msg : Mstate.msg) :: rest ->
      put wr ~width:l.f_msg.width (code "msg" l.f_msg msg.m);
      put wr ~width:l.w_ep (remap_ep m msg.src + 2);
      put wr ~width:l.w_ep (remap_ep m msg.dst + 2);
      put wr ~width:l.w_addr msg.addr;
      put wr ~width:1 (b2i msg.fresh);
      put_msgs wr l m rest

(* Encode [st] under the node permutation [m] (inverse [minv]) into the
   writer; returns the encoded length. *)
let pack_perm wr l (st : Mstate.t) m minv =
  let words = words_of l st in
  let n = l.nodes and chans = List.length st.queues in
  reserve wr ~n ~chans;
  start wr words;
  put_addrs wr l m st.addrs;
  if store_rows wr.cache_rows n 0 st.caches < n
     || store_rows wr.pend_rows n 0 st.pend < n
  then invalid_arg "Pack: a state with fewer node rows than the layout";
  (* per-node rows, emitted in permuted order: output row i is the
     original row m⁻¹(i), matching Mstate.permute's reorder *)
  for i = 0 to n - 1 do
    put_cache_row wr l wr.cache_rows.(minv.(i))
  done;
  for i = 0 to n - 1 do
    put_pend_row wr l wr.pend_rows.(minv.(i))
  done;
  sort_chans wr m 0 st.queues;
  put wr ~width:l.w_qcount chans;
  for i = 0 to chans - 1 do
    let k = wr.keys.(i) and q = wr.qs.(i) in
    put wr ~width:l.w_ep (k lsr 10);
    put wr ~width:l.w_ep ((k lsr 3) land 127);
    put wr ~width:w_cls (k land 7);
    put wr ~width:l.w_qlen (List.length q);
    put_msgs wr l m q
  done;
  close wr;
  words

(* The public entry points disarm the cutoff first: a scan that an
   {!Overflow} aborted may have left it armed. *)
let pack_into wr ?perm l st =
  let m, minv = match perm with Some p -> p | None -> l.id_perm in
  wr.cut_i <- -1;
  pack_perm wr l st m minv

let pack ?perm l st =
  let wr = writer () in
  Array.sub wr.buf 0 (pack_into wr ?perm l st)

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

let rec same_words a b i n =
  i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && same_words a b (i + 1) n)

let equal a b =
  let n = Array.length a in
  n = Array.length b && same_words a b 0 n

(* Pure arithmetic — no per-process salt, no Domain state — so the same
   vector hashes identically on every domain and in every run. *)
let hash_words v len =
  let h = ref 0x3ade68b1 in
  for i = 0 to len - 1 do
    let x = !h lxor Array.unsafe_get v i in
    let x = x * 0x2545F4914F6CDD1D land max_int in
    h := x lxor (x lsr 31)
  done;
  !h

let hash v = hash_words v (Array.length v)

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

let rec sig_addrs sg n = function
  | [] -> ()
  | (a : Mstate.addr_state) :: rest ->
      let req = match a.busy with None -> -1 | Some b -> b.requester in
      let acks = match a.busy with None -> 0 | Some b -> b.acks in
      let snap = match a.busy with None -> 0 | Some b -> b.snapshot in
      for j = 0 to n - 1 do
        sg.(j) <-
          mix sg.(j)
            ((a.sharers lsr j) land 1
            lor (((acks lsr j) land 1) lsl 1)
            lor (((snap lsr j) land 1) lsl 2)
            lor (b2i (req = j) lsl 3))
      done;
      sig_addrs sg n rest

let mix_pend h p = mix h (match p with None -> 0 | Some op -> op + 1)

let rec sig_caches sg n j = function
  | row :: rows when j < n ->
      sg.(j) <- List.fold_left mix sg.(j) row;
      sig_caches sg n (j + 1) rows
  | _ -> ()

let rec sig_pends sg n j = function
  | row :: rows when j < n ->
      sg.(j) <- List.fold_left mix_pend sg.(j) row;
      sig_pends sg n (j + 1) rows
  | _ -> ()

let rel self e = if e = self then 0 else if e >= 0 then 1 else e + 4

let rec sig_msgs self h = function
  | [] -> h
  | (msg : Mstate.msg) :: q ->
      sig_msgs self
        (mix
           (mix (mix (mix (mix h msg.m) (rel self msg.src)) (rel self msg.dst))
              msg.addr)
           (b2i msg.fresh))
        q

let channel self src dst cls q =
  sig_msgs self (mix (mix (mix 0x3ade68b1 (rel self src)) (rel self dst)) cls) q

let rec sig_chans sg = function
  | [] -> ()
  | ((src, dst, cls), q) :: rest ->
      if src >= 0 then sg.(src) <- sg.(src) + channel src src dst cls q;
      if dst >= 0 && dst <> src then
        sg.(dst) <- sg.(dst) + channel dst src dst cls q;
      sig_chans sg rest

(* The first [n] cells of [sg] <- the signatures of [st]'s [n] nodes. *)
let signatures_into sg n (st : Mstate.t) =
  Array.fill sg 0 n 0;
  sig_addrs sg n st.addrs;
  sig_caches sg n 0 st.caches;
  sig_pends sg n 0 st.pend;
  sig_chans sg st.queues

let signatures l st =
  let sg = Array.make l.nodes 0 in
  signatures_into sg l.nodes st;
  sg

let rec untied tie_end n i = i >= n || (tie_end.(i) = i + 1 && untied tie_end n (i + 1))

(* the words [i ..] of [a] come before those of [b], over [len] words *)
let rec less_from a b i len =
  i < len
  &&
  let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
  x < y || (x = y && less_from a b (i + 1) len)

(* Pack the arrangement [wr.order] and keep it if it beats the
   incumbent [wr.best].  The encoded length of a state is
   permutation-invariant (same fields, same queue lengths), so
   candidates compare word for word. *)
let candidate wr l st =
  let n = l.nodes in
  for i = 0 to n - 1 do
    wr.perm.(wr.order.(i)) <- i
  done;
  (* arm the writer's cutoff against the incumbent: a losing candidate
     usually aborts on the first completed word *)
  let incumbent = wr.best_len > 0 in
  wr.cut_i <- (if incumbent then 0 else -1);
  match pack_perm wr l st wr.perm wr.order with
  | exception Cut -> wr.cut_i <- -1 (* provably greater: skip *)
  | words ->
      let decided_smaller = incumbent && wr.cut_i < 0 in
      let tail_start = max 0 wr.cut_i in
      wr.cut_i <- -1;
      (* an equal prefix up to the last complete word leaves at most one
         partial tail word to compare *)
      if
        (not incumbent) || decided_smaller
        || less_from wr.buf wr.best tail_start words
      then begin
        if Array.length wr.best < words then wr.best <- Array.make words 0;
        Array.blit wr.buf 0 wr.best 0 words;
        wr.best_len <- words
      end

let swap a i k =
  let t = a.(i) in
  a.(i) <- a.(k);
  a.(k) <- t

(* every arrangement of each tie group, the rest of [wr.order] fixed *)
let rec arrange wr l st i =
  if i >= l.nodes then candidate wr l st
  else
    for k = i to wr.tie_end.(i) - 1 do
      swap wr.order i k;
      arrange wr l st (i + 1);
      swap wr.order i k
    done

let canonical_into wr l st =
  let n = l.nodes in
  wr.cut_i <- -1;
  reserve wr ~n ~chans:0;
  let sg = wr.sg and order = wr.order and tie_end = wr.tie_end in
  signatures_into sg n st;
  (* [order.(i)] is the node packed at position i (the inverse
     permutation); insertion sort, a handful of nodes *)
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
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
  if n > 0 then tie_end.(n - 1) <- n;
  for i = n - 2 downto 0 do
    if sg.(order.(i)) <> sg.(order.(i + 1)) then tie_end.(i) <- i + 1
    else tie_end.(i) <- tie_end.(i + 1)
  done;
  if untied tie_end n 0 then begin
    (* one candidate (the usual case): pack it in place *)
    for i = 0 to n - 1 do
      wr.perm.(order.(i)) <- i
    done;
    pack_perm wr l st wr.perm order
  end
  else begin
    wr.best_len <- 0;
    arrange wr l st 0;
    let words = wr.best_len in
    Array.blit wr.best 0 wr.buf 0 words;
    words
  end

let canonical l st =
  let wr = writer () in
  Array.sub wr.buf 0 (canonical_into wr l st)

(* --------------------------- visited set -----------------------------

   Open-addressing hash sets sharded 64 ways: the shard index comes from
   the low hash bits, the probe sequence from the high bits, and each
   shard carries its own lock, so concurrent inserts from stealing
   workers contend only when they land in the same shard.  In exact mode
   the packed vectors themselves are stored and compared word-by-word;
   with [compact_bits n] only an n-bit fingerprint of the hash survives
   (Stern–Dill hash compaction), which bounds memory at the cost of a
   fingerprint collision silently merging two distinct states — callers
   must report such searches as probabilistic.  A lookup takes the
   vector as [(buf, len)], a writer's scratch buffer included, and a
   vector is copied out only when it is inserted. *)

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

  (* The probe loops: the slot holding the vector [buf.(0 .. len-1)]
     (the fingerprint [fp]), or the empty slot where it belongs. *)
  let rec probe_exact keys mask buf len i =
    let k = keys.(i) in
    let n = Array.length k in
    if n = 0 || (n = len && same_words k buf 0 len) then i
    else probe_exact keys mask buf len ((i + 1) land mask)

  let rec probe_compact fps mask fp i =
    let x = fps.(i) in
    if x = 0 || x = fp then i else probe_compact fps mask fp ((i + 1) land mask)

  let grow_exact s =
    let old = s.keys in
    let cap = 2 * Array.length old in
    s.keys <- Array.make cap [||];
    s.mask <- cap - 1;
    Array.iter
      (fun k ->
        let len = Array.length k in
        if len > 0 then
          s.keys.(probe_exact s.keys s.mask k len (hash k lsr 6 land s.mask)) <- k)
      old

  let grow_compact s =
    let old = s.fps in
    let cap = 2 * Array.length old in
    s.fps <- Array.make cap 0;
    s.mask <- cap - 1;
    Array.iter
      (fun fp ->
        if fp <> 0 then s.fps.(probe_compact s.fps s.mask fp (fp land s.mask)) <- fp)
      old

  let check_len buf len =
    if len < 0 || len > Array.length buf then invalid_arg "Pack.Vset: bad vector length"

  (* [add_words t buf len] inserts [buf.(0 .. len-1)] and reports
     whether it was new. *)
  let add_words t buf len =
    check_len buf len;
    let h = hash_words buf len in
    let si = h land (shard_count - 1) in
    let s = t.shards.(si) in
    Mutex.lock s.lock;
    let inserted =
      match t.compact with
      | None ->
          let i = probe_exact s.keys s.mask buf len (h lsr 6 land s.mask) in
          Array.length s.keys.(i) = 0
          && begin
               s.keys.(i) <- Array.sub buf 0 len;
               s.count <- s.count + 1;
               if 2 * s.count >= Array.length s.keys then begin
                 grow_exact s;
                 (* shard pressure: the open-addressing table doubled *)
                 Obs.Flightrec.record ~tag:Obs.Flightrec.tag_compact ~a:si
                   ~b:(Array.length s.keys) ~c:0
               end;
               true
             end
      | Some bits ->
          let fp = fingerprint bits h in
          let i = probe_compact s.fps s.mask fp (fp land s.mask) in
          s.fps.(i) = 0
          && begin
               s.fps.(i) <- fp;
               s.count <- s.count + 1;
               if 2 * s.count >= Array.length s.fps then begin
                 grow_compact s;
                 Obs.Flightrec.record ~tag:Obs.Flightrec.tag_compact ~a:si
                   ~b:(Array.length s.fps) ~c:0
               end;
               true
             end
    in
    Mutex.unlock s.lock;
    inserted

  let add t v = add_words t v (Array.length v)

  let mem t v =
    let len = Array.length v in
    let h = hash_words v len in
    let s = t.shards.(h land (shard_count - 1)) in
    Mutex.lock s.lock;
    let found =
      match t.compact with
      | None ->
          Array.length s.keys.(probe_exact s.keys s.mask v len (h lsr 6 land s.mask)) > 0
      | Some bits ->
          let fp = fingerprint bits h in
          s.fps.(probe_compact s.fps s.mask fp (fp land s.mask)) <> 0
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
