(* Per-layer attribution from span events: inclusive and self time per span
   name, and how much of each root span its direct children cover.  Works on
   the in-process event buffers and on a daemon's Chrome trace alike. *)

type ev = { name : string; begins : bool; ts_s : float; dom : int }

type stat = { mutable count : int; mutable incl_s : float; mutable self_s : float }

type t = {
  by_name : (string, stat) Hashtbl.t;
  mutable root_s : float;  (** summed duration of the root spans *)
  mutable covered_s : float;  (** summed duration of the roots' direct children *)
}

let stat t name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None ->
      let s = { count = 0; incl_s = 0.0; self_s = 0.0 } in
      Hashtbl.replace t.by_name name s;
      s

let get f zero t name = match Hashtbl.find_opt t.by_name name with Some s -> f s | None -> zero
let count = get (fun s -> s.count) 0
let incl = get (fun s -> s.incl_s) 0.0
let self = get (fun s -> s.self_s) 0.0

type frame = { f_name : string; start : float; mutable children_s : float }

(* Attribute [evs] (time-ordered; Begin/End balanced per domain).  Self
   time is a span's duration minus its direct children's. *)
let analyse ?(root = "bench/job") evs =
  let t = { by_name = Hashtbl.create 32; root_s = 0.0; covered_s = 0.0 } in
  let stacks = Hashtbl.create 4 in
  let stack dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
        let s = Stack.create () in
        Hashtbl.replace stacks dom s;
        s
  in
  List.iter
    (fun e ->
      let st = stack e.dom in
      if e.begins then Stack.push { f_name = e.name; start = e.ts_s; children_s = 0.0 } st
      else
        match Stack.pop_opt st with
        | None -> ()
        | Some f ->
            let dur = e.ts_s -. f.start in
            let s = stat t f.f_name in
            s.count <- s.count + 1;
            s.incl_s <- s.incl_s +. dur;
            s.self_s <- s.self_s +. (dur -. f.children_s);
            if f.f_name = root then t.root_s <- t.root_s +. dur;
            (match Stack.top_opt st with
            | Some parent ->
                parent.children_s <- parent.children_s +. dur;
                if parent.f_name = root then t.covered_s <- t.covered_s +. dur
            | None -> ()))
    evs;
  t

let coverage t = if t.root_s > 0.0 then t.covered_s /. t.root_s else 0.0

(* In-process events, as drained from the obs buffers. *)
let of_obs (events : Cpla_obs.Event.t list) =
  List.filter_map
    (fun (e : Cpla_obs.Event.t) ->
      match e.ph with
      | Cpla_obs.Event.Instant -> None
      | ph ->
          Some
            {
              name = e.name;
              begins = ph = Cpla_obs.Event.Begin;
              ts_s = Int64.to_float e.ts_ns *. 1e-9;
              dom = e.dom;
            })
    events

(* A Chrome trace written by `cpla --trace`: one event object per line,
   timestamps in microseconds. *)
let of_chrome_trace text =
  let module Json = Cpla_net.Json in
  let strip line =
    let line = String.trim line in
    let prefix = "{\"traceEvents\":[" in
    let line =
      if String.starts_with ~prefix line then
        String.sub line (String.length prefix) (String.length line - String.length prefix)
      else line
    in
    let drop_suffix suffix l =
      if String.ends_with ~suffix l then String.sub l 0 (String.length l - String.length suffix)
      else l
    in
    drop_suffix "," (drop_suffix "]}" line)
  in
  List.filter_map
    (fun line ->
      match Json.parse (strip line) with
      | Error _ -> None
      | Ok obj -> (
          let str k = Option.bind (Json.member k obj) Json.as_string in
          let num k = Option.bind (Json.member k obj) Json.as_float in
          match (str "name", str "ph", num "ts", num "tid") with
          | Some name, Some ("B" | "E" as ph), Some ts, Some tid ->
              Some { name; begins = ph = "B"; ts_s = ts *. 1e-6; dom = int_of_float tid }
          | _ -> None))
    (String.split_on_char '\n' text)

(* Counter rows of `cpla --metrics` output ("| name | counter | value |"). *)
let counters_of_dump text =
  List.filter_map
    (fun line ->
      match List.map String.trim (String.split_on_char '|' line) with
      | [ ""; name; "counter"; value; "" ] ->
          Option.map (fun v -> (name, v)) (int_of_string_opt value)
      | _ -> None)
    (String.split_on_char '\n' text)
