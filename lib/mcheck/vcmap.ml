type t = {
  names : string array;  (* sorted; a channel's index is its position *)
  capacity : int array;
  by_key : int array array;
      (* by [2 * class + source is memory] (the classes are the first six
         symbols): message symbol -> channel, [dedicated] past the end *)
}

let dedicated = -1

(* The role pair V names a FIFO class's traffic by; [ackq] is outside V. *)
let roles cls ~from_mem =
  if cls = Mstate.reqq then Some ("local", "home")
  else if cls = Mstate.snp then Some ("home", "remote")
  else if cls = Mstate.resp then Some ("home", "local")
  else if cls = Mstate.memq || (cls = Mstate.respq && from_mem) then
    Some ("home", "home")
  else if cls = Mstate.respq then Some ("remote", "home")
  else None

let resolve ~capacity rows =
  let names =
    Array.of_list
      (List.sort_uniq String.compare (List.map (fun (_, _, _, v) -> v) rows))
  in
  let index v = Option.get (Array.find_index (String.equal v) names) in
  let table (s, d) =
    let hits =
      List.filter_map
        (fun (m, s', d', v) ->
          if s = s' && d = d' then
            Option.map (fun m -> (m, index v)) (Mstate.find m)
          else None)
        rows
    in
    let len = List.fold_left (fun n (m, _) -> max n (m + 1)) 0 hits in
    let arr = Array.make len dedicated in
    (* the first row of a triple wins, as in V's own lookup *)
    List.iter (fun (m, c) -> if arr.(m) = dedicated then arr.(m) <- c) hits;
    arr
  in
  let by_key =
    Array.init (2 * (Mstate.snp + 1)) (fun k ->
        Option.fold ~none:[||] ~some:table (roles (k / 2) ~from_mem:(k mod 2 = 1)))
  in
  { names; capacity = Array.map capacity names; by_key }

let channel t ~cls ~src m =
  let k = (2 * cls) + Bool.to_int (src = Mstate.mem) in
  if k < Array.length t.by_key && m < Array.length t.by_key.(k) then
    t.by_key.(k).(m)
  else dedicated

let name t i = t.names.(i)

let counts t (st : Mstate.t) =
  let n = Array.make (Array.length t.names) 0 in
  List.iter
    (fun ((src, _, cls), q) ->
      List.iter
        (fun (msg : Mstate.msg) ->
          let c = channel t ~cls ~src msg.m in
          if c <> dedicated then n.(c) <- n.(c) + 1)
        q)
    st.queues;
  n

let occupancy t st =
  List.filter
    (fun (_, n) -> n > 0)
    (Array.to_list (Array.map2 (fun vc n -> (vc, n)) t.names (counts t st)))

let fits t st = Array.for_all2 ( >= ) t.capacity (counts t st)
