(* Bit-packed state vectors for the explicit-state checker.

   A model state is encoded into an immutable int array: every symbolic
   field (directory state, busy state, cache state, pending op, message
   name) is interned into a per-field dictionary (Relalg.Dict) and
   written as a fixed-width code, with the width computed once per model
   from the dictionary cardinality plus one headroom bit.  Dedup then
   becomes a machine-word hash plus a word-by-word compare instead of a
   Marshal string and polymorphic structural equality, and the encoding
   is exactly invertible ([unpack]) so counterexample replay and MSC
   rendering still see ordinary {!Mstate.t} values.

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

type field = {
  dict : Relalg.Dict.t;
  mutable width : int;
  memo : (string, int) Hashtbl.t;
      (* plain string → code shortcut so the hot path hashes the bare
         string once instead of boxing a [Value.Str]; grows only when
         the dictionary does (spawning domain, per the Dict contract) *)
}

exception Overflow of string

let bits_needed n =
  (* bits to represent codes 0 .. n-1 (at least 1) *)
  let rec go acc m = if m <= 1 then max 1 acc else go (acc + 1) ((m + 1) / 2) in
  go 0 n

let field_of_seed seed =
  let dict = Relalg.Dict.create () in
  let memo = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Relalg.Dict.intern dict (Relalg.Value.Str s) in
      if not (Hashtbl.mem memo s) then Hashtbl.add memo s c)
    seed;
  (* one headroom bit: the dictionary may double before codes stop
     fitting, so a handful of late-interned strings never force a
     re-encode of the visited set *)
  { dict; width = bits_needed (max 2 (Relalg.Dict.size dict)) + 1; memo }

(* The message classes are a closed set fixed by the channel structure,
   not a dictionary: three bits, stable across every model. *)
let classes = [| "reqq"; "respq"; "snp"; "resp"; "ackq"; "memq" |]
let w_cls = 3

let cls_code name =
  let rec go i =
    if i >= Array.length classes then raise (Overflow ("class " ^ name))
    else if String.equal classes.(i) name then i
    else go (i + 1)
  in
  go 0

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
  let grow f = { f with width = bits_needed (max 2 (Relalg.Dict.size f.dict)) + 1 } in
  {
    l with
    f_dirst = grow l.f_dirst;
    f_bst = grow l.f_bst;
    f_cache = grow l.f_cache;
    f_pend = grow l.f_pend;
    f_msg = grow l.f_msg;
  }

(* [code] stays read-only ([Dict.code_opt]) as long as the seed
   vocabulary covers the string — the property that makes packing safe
   from pool workers.  A genuinely new string interns (spawning domain
   only, by the Dict contract) and raises once it outgrows the field
   width; callers then [refresh] into a wider layout. *)
let code what f s =
  let c =
    match Hashtbl.find_opt f.memo s with
    | Some c -> c
    | None ->
        let c = Relalg.Dict.intern f.dict (Relalg.Value.Str s) in
        Hashtbl.add f.memo s c;
        c
  in
  if c >= 1 lsl f.width then
    raise (Overflow (Printf.sprintf "%s %S: code %d needs more than %d bits" what s c f.width))
  else c

(* --------------------------- bit stream -------------------------------
   62 payload bits per word keeps every shift strictly inside OCaml's
   63-bit native int, on both sides of a word boundary. *)

let word_bits = 62
let word_mask = (1 lsl word_bits) - 1

type writer = {
  mutable buf : int array;
  mutable bit : int;
  (* Canonical-scan cutoff.  While [cut_i >= 0], every word the writer
     completes is compared against the incumbent minimum [cut]: the
     moment a completed word is greater the whole encoding is provably
     greater (words are written most-significant-field first and never
     touched again once [bit] moves past them), so the pack aborts with
     {!Cut}; a smaller word decides the scan the other way and disables
     further compares ([cut_i <- -1]).  [-1] also means "no cutoff". *)
  mutable cut : int array;
  mutable cut_i : int;
}

exception Cut

let writer () = { buf = Array.make 4 0; bit = 0; cut = [||]; cut_i = -1 }

let put wr ~width v =
  (* [v lsr width] rather than [v >= 1 lsl width]: a 62-bit field (the
     sharer mask at 62 nodes) would shift into the sign bit *)
  if v < 0 || v lsr width <> 0 then
    raise (Overflow (Printf.sprintf "value %d exceeds %d-bit field" v width));
  let iw = wr.bit / word_bits and ib = wr.bit mod word_bits in
  if iw + 1 >= Array.length wr.buf then begin
    let buf = Array.make (2 * Array.length wr.buf) 0 in
    Array.blit wr.buf 0 buf 0 (Array.length wr.buf);
    wr.buf <- buf
  end;
  wr.buf.(iw) <- wr.buf.(iw) lor (v lsl ib land word_mask);
  if ib + width > word_bits then wr.buf.(iw + 1) <- v lsr (word_bits - ib);
  wr.bit <- wr.bit + width;
  if wr.cut_i >= 0 then begin
    let cw = wr.bit / word_bits in
    while wr.cut_i >= 0 && wr.cut_i < cw && wr.cut_i < Array.length wr.cut do
      let i = wr.cut_i in
      let a = Array.unsafe_get wr.buf i and b = Array.unsafe_get wr.cut i in
      if a > b then raise Cut
      else if a < b then wr.cut_i <- -1
      else wr.cut_i <- i + 1
    done
  end

let contents wr =
  let words = (wr.bit + word_bits - 1) / word_bits in
  Array.sub wr.buf 0 (max 1 words)

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

let pack_into wr ?perm l (st : Mstate.t) =
  let m, minv = match perm with Some p -> p | None -> l.id_perm in
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
  (* channels, sorted by the canonical (src+2, dst+2, class-code) order
     after endpoint remapping; message FIFO order is preserved *)
  let chans =
    List.sort compare
      (List.map
         (fun ((src, dst, cls), q) ->
           (remap_ep m src + 2, remap_ep m dst + 2, cls_code cls), q)
         st.queues)
  in
  put wr ~width:l.w_qcount (List.length chans);
  List.iter
    (fun ((src2, dst2, cc), q) ->
      put wr ~width:l.w_ep src2;
      put wr ~width:l.w_ep dst2;
      put wr ~width:w_cls cc;
      put wr ~width:l.w_qlen (List.length q);
      List.iter
        (fun (msg : Mstate.msg) ->
          put wr ~width:l.f_msg.width (code "msg" l.f_msg msg.m);
          put wr ~width:l.w_ep (remap_ep m msg.src + 2);
          put wr ~width:l.w_ep (remap_ep m msg.dst + 2);
          put wr ~width:l.w_addr msg.addr;
          put wr ~width:1 (b2i msg.fresh))
        q)
    chans

let pack ?perm l st =
  let wr = writer () in
  pack_into wr ?perm l st;
  contents wr

(* ------------------------------ decode ------------------------------- *)

let decode what f c =
  match Relalg.Dict.value f.dict c with
  | Relalg.Value.Str s -> s
  | _ -> invalid_arg ("Pack.unpack: non-string " ^ what ^ " code")

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
     classes by code, not alphabetically *)
  { addrs; caches; pend; queues = List.sort compare chans }

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
   labels, so list order is not equivariant.  Strings hash as strings,
   so signatures never touch the dictionaries. *)

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
        let bit mask = (mask lsr j) land 1 in
        sg.(j) <-
          mix sg.(j)
            (bit a.sharers
            lor (bit acks lsl 1)
            lor (bit snap lsl 2)
            lor (b2i (req = j) lsl 3))
      done)
    st.addrs;
  List.iteri
    (fun j row -> List.iter (fun c -> sg.(j) <- mix sg.(j) (Hashtbl.hash c)) row)
    st.caches;
  List.iteri
    (fun j row ->
      List.iter
        (fun p ->
          sg.(j) <- mix sg.(j) (match p with None -> 0 | Some op -> Hashtbl.hash op))
        row)
    st.pend;
  let channel self ((src, dst, cls), q) =
    let rel e = if e = self then 0 else if e >= 0 then 1 else e + 4 in
    List.fold_left
      (fun h (msg : Mstate.msg) ->
        mix
          (mix (mix (mix (mix h (Hashtbl.hash msg.m)) (rel msg.src)) (rel msg.dst))
             msg.addr)
          (b2i msg.fresh))
      (mix (mix (mix 0x3ade68b1 (rel src)) (rel dst)) (Hashtbl.hash cls))
      q
  in
  List.iter
    (fun (((src, dst, _), _) as ch) ->
      if src >= 0 then sg.(src) <- sg.(src) + channel src ch;
      if dst >= 0 && dst <> src then sg.(dst) <- sg.(dst) + channel dst ch)
    st.queues;
  sg

(* One scratch writer serves every candidate: the encoded bit length of
   a state is permutation-invariant (same fields, same queue lengths),
   so candidates compare word-for-word in the scratch buffer and only
   the running minimum is ever copied out. *)
let canonical l st =
  let n = l.nodes in
  let sg = signatures l st in
  (* [order.(i)] is the node packed at position i (the inverse
     permutation) *)
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare sg.(a) sg.(b)) order;
  (* [tie_end.(i)]: one past the last position tying with position i *)
  let tie_end = Array.make n n in
  for i = n - 2 downto 0 do
    if sg.(order.(i)) <> sg.(order.(i + 1)) then tie_end.(i) <- i + 1
    else tie_end.(i) <- tie_end.(i + 1)
  done;
  let m = Array.make n 0 in
  let wr = writer () in
  let best = ref [||] in
  let candidate () =
    Array.iteri (fun i j -> m.(j) <- i) order;
    Array.fill wr.buf 0 (Array.length wr.buf) 0;
    wr.bit <- 0;
    (* arm the writer's cutoff against the incumbent minimum: a losing
       candidate usually aborts on the first completed word (encoded
       length is permutation-invariant, so word-for-word compare
       against [best] is sound mid-pack) *)
    wr.cut <- !best;
    wr.cut_i <- (if Array.length !best = 0 then -1 else 0);
    match pack_into wr ~perm:(m, order) l st with
    | exception Cut -> wr.cut_i <- -1 (* provably greater: skip *)
    | () ->
        let words = max 1 ((wr.bit + word_bits - 1) / word_bits) in
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
        if better then best := Array.sub wr.buf 0 words
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
                  ~b:(Array.length s.keys) ()
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
                  ~b:(Array.length s.fps) ()
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
