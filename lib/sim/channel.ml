type t = Vc of string | Dedicated of string

let to_string = function Vc s -> s | Dedicated s -> "HW:" ^ s
let is_blocking = function Vc _ -> true | Dedicated _ -> false

let roles ~cls ~src ~dst =
  ignore dst;
  match cls with
  | "reqq" -> "local", "home"
  | "snp" -> "home", "remote"
  | "resp" -> "home", "local"
  | "memq" -> "home", "home"
  | "respq" -> if src = Mcheck.Mstate.mem then "home", "home" else "remote", "home"
  | "ackq" -> "local", "home"
  | _ -> "local", "home"

let of_message ~v ~cls ~src ~dst name =
  if cls = "ackq" then Dedicated "ack"
  else
    let s, d = roles ~cls ~src ~dst in
    match Checker.Vcassign.lookup v ~msg:name ~src:s ~dst:d with
    | Some vc -> Vc vc
    | None -> Dedicated name

let occupancy ~v (st : Mcheck.Mstate.t) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun ((src, dst, cls), q) ->
      List.iter
        (fun (m : Mcheck.Mstate.msg) ->
          match
            of_message ~v ~cls:(Mcheck.Mstate.name cls) ~src ~dst
              (Mcheck.Mstate.name m.m)
          with
          | Vc vc ->
              Hashtbl.replace counts vc
                (1 + Option.value (Hashtbl.find_opt counts vc) ~default:0)
          | Dedicated _ -> ())
        q)
    st.queues;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

let over_capacity ~v ~capacity st =
  List.filter_map
    (fun (vc, n) -> if n > capacity vc then Some vc else None)
    (occupancy ~v st)
