(* The ASURA_* environment knobs, each declared once.  Readers look the
   variable up on every call (tests flip ASURA_PLAN_BUILD at run time)
   and raise on a malformed value; nothing here runs at module
   initialisation, so a binary always gets to print its own line. *)

exception Invalid of string

type 'a knob = {
  name : string;
  parse : string -> 'a option;
  default : 'a;
  expected : string;  (* the refusal: "<name> <expected> (got <value>)" *)
  json : 'a -> Json.t;
}

let parse k v =
  match k.parse v with
  | Some x -> x
  | None -> raise (Invalid (Printf.sprintf "%s %s (got %S)" k.name k.expected v))

let read k = Option.map (parse k) (Sys.getenv_opt k.name)
let get k = Option.value (read k) ~default:k.default

let domains_knob =
  {
    name = "ASURA_DOMAINS";
    parse =
      (fun v ->
        match int_of_string_opt v with Some n when n >= 1 -> Some n | _ -> None);
    default = 1;
    expected = "must be an integer >= 1";
    json = (fun n -> Json.Int n);
  }

let flightrec_knob =
  {
    name = "ASURA_FLIGHTREC";
    parse =
      (function
      | "1" | "on" | "true" | "yes" -> Some true
      | "0" | "off" | "false" | "no" -> Some false
      | _ -> None);
    default = true;
    expected = "must be on or off (or 1/0, true/false, yes/no)";
    json = (fun b -> Json.Bool b);
  }

(* The empty string is unset: Test_env.with_env hands an unset variable
   back as "". *)
let plan_build_knob =
  {
    name = "ASURA_PLAN_BUILD";
    parse =
      (function
      | "left" | "LEFT" | "l" -> Some (Some true)
      | "right" | "RIGHT" | "r" -> Some (Some false)
      | "" -> Some None
      | _ -> None);
    default = None;
    expected = "must be left or right (or LEFT/RIGHT, l/r)";
    json =
      (function
      | None -> Json.Null
      | Some left -> Json.Str (if left then "left" else "right"));
  }

let domains () = get domains_knob
let flightrec () = get flightrec_knob
let plan_build () = get plan_build_knob
let parse_domains ~name v = parse { domains_knob with name } v
let parse_flightrec v = parse flightrec_knob v
let parse_plan_build v = parse plan_build_knob v

type any = Knob : 'a knob -> any

let knobs = [ Knob domains_knob; Knob flightrec_knob; Knob plan_build_knob ]

let check () =
  List.find_map
    (fun (Knob k) -> match read k with _ -> None | exception Invalid line -> Some line)
    knobs

let to_json () =
  Json.Obj
    (List.map
       (fun (Knob k) ->
         (k.name, match read k with None -> Json.Null | Some v -> k.json v))
       knobs)
