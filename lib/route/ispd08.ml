open Cpla_grid

type header = {
  grid_x : int;
  grid_y : int;
  num_layers : int;
  vertical_capacity : int array;
  horizontal_capacity : int array;
  min_width : int array;
  min_spacing : int array;
  via_spacing : int array;
  lower_left_x : int;
  lower_left_y : int;
  tile_width : int;
  tile_height : int;
}

type adjustment = {
  from_x : int;
  from_y : int;
  from_layer : int;
  to_x : int;
  to_y : int;
  to_layer : int;
  new_capacity : int;
}

type design = {
  header : header;
  nets : Net.t array;
  adjustments : adjustment list;
}

(* ---- parsing ----------------------------------------------------------- *)

let tokens_of_string s =
  String.split_on_char '\n' s
  |> List.concat_map (fun line ->
         String.split_on_char ' ' line
         |> List.concat_map (String.split_on_char '\t')
         |> List.filter (fun t -> t <> ""))

exception Parse_error of string

let parse_exn content =
  let toks = ref (tokens_of_string content) in
  let next () =
    match !toks with
    | [] -> raise (Parse_error "unexpected end of file")
    | t :: rest ->
        toks := rest;
        t
  in
  let expect word =
    let t = next () in
    if String.lowercase_ascii t <> word then
      raise (Parse_error (Printf.sprintf "expected '%s', got '%s'" word t))
  in
  let int_tok () =
    let t = next () in
    match int_of_string_opt t with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "expected integer, got '%s'" t))
  in
  let at_least lo what v =
    if v < lo then raise (Parse_error (Printf.sprintf "%s must be at least %d, got %d" what lo v));
    v
  in
  (* Items are read before anything is sized by the count, so a count
     larger than the file runs out of tokens instead of allocating. *)
  let counted what n read =
    let n = at_least 0 what n in
    let acc = ref [] in
    for i = 0 to n - 1 do
      acc := read i :: !acc
    done;
    List.rev !acc
  in
  expect "grid";
  (* the smallest routable grid: Graph needs 2x2 tiles and Tech 2 layers *)
  let grid_x = at_least 2 "grid width" (int_tok ()) in
  let grid_y = at_least 2 "grid height" (int_tok ()) in
  let num_layers = at_least 2 "layer count" (int_tok ()) in
  let int_vector () = Array.of_list (counted "layer count" num_layers (fun _ -> int_tok ())) in
  expect "vertical";
  expect "capacity";
  let vertical_capacity = int_vector () in
  expect "horizontal";
  expect "capacity";
  let horizontal_capacity = int_vector () in
  expect "minimum";
  expect "width";
  let min_width = int_vector () in
  expect "minimum";
  expect "spacing";
  let min_spacing = int_vector () in
  expect "via";
  expect "spacing";
  let via_spacing = int_vector () in
  let lower_left_x = int_tok () in
  let lower_left_y = int_tok () in
  let tile_width = at_least 1 "tile width" (int_tok ()) in
  let tile_height = at_least 1 "tile height" (int_tok ()) in
  expect "num";
  expect "net";
  let num_nets = int_tok () in
  let header =
    {
      grid_x;
      grid_y;
      num_layers;
      vertical_capacity;
      horizontal_capacity;
      min_width;
      min_spacing;
      via_spacing;
      lower_left_x;
      lower_left_y;
      tile_width;
      tile_height;
    }
  in
  let tile_of_abs ax ay =
    let tx = (ax - lower_left_x) / tile_width in
    let ty = (ay - lower_left_y) / tile_height in
    (min (grid_x - 1) (max 0 tx), min (grid_y - 1) (max 0 ty))
  in
  let nets =
    counted "net count" num_nets (fun i ->
        let name = next () in
        let _file_id = int_tok () in
        let num_pins = int_tok () in
        let _min_width = int_tok () in
        let pins =
          counted ("pin count of net " ^ name) num_pins (fun _ ->
              let ax = int_tok () in
              let ay = int_tok () in
              let l = int_tok () in
              if l < 1 || l > num_layers then
                raise
                  (Parse_error
                     (Printf.sprintf "net %s: pin layer %d outside 1..%d" name l num_layers));
              let px, py = tile_of_abs ax ay in
              { Net.px; py; pl = l - 1 })
          |> Array.of_list
        in
        let pins = Net.dedup_pins pins in
        (* keep single-tile nets; callers skip them when routing *)
        let pins =
          if Array.length pins >= 2 then pins
          else if Array.length pins = 1 then [| pins.(0); pins.(0) |]
          else raise (Parse_error (Printf.sprintf "net %s has no pins" name))
        in
        Net.create ~id:i ~name ~pins)
    |> Array.of_list
  in
  let adjustments =
    match !toks with
    | [] -> []
    | _ ->
        let n_adj = int_tok () in
        counted "adjustment count" n_adj (fun _ ->
            let from_x = int_tok () in
            let from_y = int_tok () in
            let from_layer = int_tok () in
            let to_x = int_tok () in
            let to_y = int_tok () in
            let to_layer = int_tok () in
            let new_capacity = int_tok () in
            { from_x; from_y; from_layer; to_x; to_y; to_layer; new_capacity })
  in
  { header; nets; adjustments }

let parse content =
  match parse_exn content with
  | design -> Ok design
  | exception Parse_error msg -> Error msg

(* ---- writing ----------------------------------------------------------- *)

let write design =
  let h = design.header in
  let buf = Buffer.create 4096 in
  let vec a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Buffer.add_string buf (Printf.sprintf "grid %d %d %d\n" h.grid_x h.grid_y h.num_layers);
  Buffer.add_string buf (Printf.sprintf "vertical capacity %s\n" (vec h.vertical_capacity));
  Buffer.add_string buf (Printf.sprintf "horizontal capacity %s\n" (vec h.horizontal_capacity));
  Buffer.add_string buf (Printf.sprintf "minimum width %s\n" (vec h.min_width));
  Buffer.add_string buf (Printf.sprintf "minimum spacing %s\n" (vec h.min_spacing));
  Buffer.add_string buf (Printf.sprintf "via spacing %s\n" (vec h.via_spacing));
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d\n\n" h.lower_left_x h.lower_left_y h.tile_width h.tile_height);
  Buffer.add_string buf (Printf.sprintf "num net %d\n" (Array.length design.nets));
  Array.iteri
    (fun i net ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d 1\n" net.Net.name i (Array.length net.Net.pins));
      Array.iter
        (fun p ->
          let ax = h.lower_left_x + (p.Net.px * h.tile_width) + (h.tile_width / 2) in
          let ay = h.lower_left_y + (p.Net.py * h.tile_height) + (h.tile_height / 2) in
          Buffer.add_string buf (Printf.sprintf "%d %d %d\n" ax ay (p.Net.pl + 1)))
        net.Net.pins)
    design.nets;
  Buffer.add_string buf (Printf.sprintf "\n%d\n" (List.length design.adjustments));
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d %d %d %d %d\n" a.from_x a.from_y a.from_layer a.to_x a.to_y
           a.to_layer a.new_capacity))
    design.adjustments;
  Buffer.contents buf

(* ---- graph construction ------------------------------------------------ *)

let to_graph design =
  let h = design.header in
  let base = Tech.default ~num_layers:h.num_layers () in
  (* Directions follow the capacity vectors: a layer with zero horizontal
     capacity is vertical, and vice versa. *)
  let layers =
    Array.mapi
      (fun l layer ->
        let dir =
          if h.horizontal_capacity.(l) > 0 && h.vertical_capacity.(l) = 0 then Tech.Horizontal
          else if h.vertical_capacity.(l) > 0 && h.horizontal_capacity.(l) = 0 then Tech.Vertical
          else layer.Tech.dir
        in
        { layer with Tech.dir })
      base.Tech.layers
  in
  let tech = { base with Tech.layers } in
  let layer_capacity =
    Array.init h.num_layers (fun l ->
        match Tech.layer_dir tech l with
        | Tech.Horizontal -> h.horizontal_capacity.(l)
        | Tech.Vertical -> h.vertical_capacity.(l))
  in
  let graph = Graph.create ~tech ~width:h.grid_x ~height:h.grid_y ~layer_capacity in
  List.iter
    (fun a ->
      let layer = a.from_layer - 1 in
      if layer >= 0 && layer < h.num_layers && a.from_layer = a.to_layer then begin
        let dir = Tech.layer_dir tech layer in
        let e =
          { Graph.dir; x = min a.from_x a.to_x; y = min a.from_y a.to_y }
        in
        if Graph.edge_exists graph e then begin
          let current = Graph.capacity graph e ~layer in
          Graph.reduce_capacity graph e ~layer ~by:(current - a.new_capacity)
        end
      end)
    design.adjustments;
  graph
