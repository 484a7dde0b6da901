open Cpla_grid
open Cpla_route

let pin px py = { Net.px; py; pl = 0 }

let mk_graph ?(w = 16) ?(h = 16) ?(layers = 4) ?(cap = 8) () =
  let tech = Tech.default ~num_layers:layers () in
  Graph.create ~tech ~width:w ~height:h ~layer_capacity:(Array.make layers cap)

(* ---- Net ----------------------------------------------------------------- *)

let test_net_basics () =
  let n = Net.create ~id:0 ~name:"n0" ~pins:[| pin 0 0; pin 3 4; pin 1 1 |] in
  Alcotest.(check int) "hpwl" 7 (Net.hpwl n);
  Alcotest.(check int) "pins" 3 (Net.num_pins n);
  Alcotest.(check bool) "source" true (Net.source n = pin 0 0);
  Alcotest.(check int) "sinks" 2 (Array.length (Net.sinks n))

let test_net_dedup () =
  let pins = [| pin 0 0; pin 0 0; pin 1 1 |] in
  Alcotest.(check int) "deduped" 2 (Array.length (Net.dedup_pins pins))

let test_net_too_few () =
  Alcotest.(check bool) "needs 2 pins" true
    (match Net.create ~id:0 ~name:"x" ~pins:[| pin 0 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Stree ---------------------------------------------------------------- *)

let test_stree_of_edges () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (3, 0)); ((3, 0), (3, 2)) ] in
  Alcotest.(check int) "nodes" 3 (Stree.num_nodes t);
  Alcotest.(check int) "wirelength" 5 (Stree.total_wirelength t);
  Alcotest.(check bool) "valid" true (Stree.validate t = Ok ())

let test_stree_rejects_diagonal () =
  Alcotest.(check bool) "diagonal" true
    (match Stree.of_edges ~root:(0, 0) [ ((0, 0), (1, 1)) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stree_rejects_cycle () =
  let edges = [ ((0, 0), (1, 0)); ((1, 0), (1, 1)); ((1, 1), (0, 1)); ((0, 1), (0, 0)) ] in
  Alcotest.(check bool) "cycle" true
    (match Stree.of_edges ~root:(0, 0) edges with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stree_rejects_disconnected () =
  let edges = [ ((0, 0), (1, 0)); ((5, 5), (6, 5)) ] in
  Alcotest.(check bool) "disconnected" true
    (match Stree.of_edges ~root:(0, 0) edges with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_stree_compress () =
  (* chain of unit edges along x then a turn: compress to 2 segments *)
  let edges = [ ((0, 0), (1, 0)); ((1, 0), (2, 0)); ((2, 0), (2, 1)); ((2, 1), (2, 2)) ] in
  let t = Stree.of_edges ~root:(0, 0) edges in
  let c = Stree.compress ~keep:[ (0, 0); (2, 2) ] t in
  Alcotest.(check int) "compressed nodes" 3 (Stree.num_nodes c);
  Alcotest.(check int) "same wirelength" (Stree.total_wirelength t) (Stree.total_wirelength c);
  Alcotest.(check bool) "still valid" true (Stree.validate c = Ok ())

let test_stree_compress_keeps_pins () =
  let edges = [ ((0, 0), (1, 0)); ((1, 0), (2, 0)) ] in
  let t = Stree.of_edges ~root:(0, 0) edges in
  let c = Stree.compress ~keep:[ (1, 0) ] t in
  Alcotest.(check bool) "pin node kept" true (Stree.find_node c (1, 0) <> None)

let test_stree_path_to_root () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (2, 0)); ((2, 0), (2, 3)) ] in
  let leaf = match Stree.find_node t (2, 3) with Some i -> i | None -> Alcotest.fail "leaf" in
  let path = Stree.path_to_root t leaf in
  Alcotest.(check int) "path length" 3 (List.length path);
  Alcotest.(check bool) "ends at root" true (List.nth path 2 = t.Stree.root)

let test_stree_contains_point () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (4, 0)) ] in
  Alcotest.(check bool) "interior point" true (Stree.contains_point t (2, 0));
  Alcotest.(check bool) "off tree" false (Stree.contains_point t (2, 1))

(* ---- Segment ---------------------------------------------------------------- *)

let test_segment_extract () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (3, 0)); ((3, 0), (3, 2)) ] in
  let segs, node_to_seg = Segment.extract ~net_id:7 t in
  Alcotest.(check int) "two segments" 2 (Array.length segs);
  Alcotest.(check int) "root has no segment" (-1) node_to_seg.(t.Stree.root);
  let total_len = Array.fold_left (fun a s -> a + s.Segment.len) 0 segs in
  Alcotest.(check int) "lengths cover tree" 5 total_len;
  Array.iter
    (fun s ->
      Alcotest.(check int) "edges match len" s.Segment.len (Array.length s.Segment.edges);
      Alcotest.(check int) "net id" 7 s.Segment.net_id)
    segs

let test_segment_direction () =
  let t = Stree.of_edges ~root:(0, 0) [ ((0, 0), (3, 0)) ] in
  let segs, _ = Segment.extract ~net_id:0 t in
  Alcotest.(check bool) "horizontal" true (segs.(0).Segment.dir = Tech.Horizontal)

(* ---- Maze ---------------------------------------------------------------- *)

let test_maze_straight () =
  let cost _ = 1.0 in
  match Maze.route ~width:8 ~height:8 ~cost ~sources:[ (0, 0) ] ~targets:[ (5, 0) ] with
  | Some path ->
      Alcotest.(check int) "path tiles" 6 (List.length path);
      Alcotest.(check bool) "starts at source" true (List.hd path = (0, 0))
  | None -> Alcotest.fail "expected path"

let test_maze_detour () =
  (* wall of infinite cost along x=2 except y=7 *)
  let cost (e : Graph.edge2d) =
    if e.Graph.dir = Tech.Horizontal && e.Graph.x = 2 && e.Graph.y < 7 then infinity else 1.0
  in
  match Maze.route ~width:8 ~height:8 ~cost ~sources:[ (0, 0) ] ~targets:[ (6, 0) ] with
  | Some path ->
      Alcotest.(check bool) "detours via y=7" true (List.exists (fun (_, y) -> y = 7) path)
  | None -> Alcotest.fail "expected detour path"

let test_maze_blocked () =
  let cost (e : Graph.edge2d) =
    if e.Graph.dir = Tech.Horizontal && e.Graph.x = 2 then infinity else 1.0
  in
  (* also block vertical moves: make everything right of x=2 unreachable *)
  let cost (e : Graph.edge2d) = if e.Graph.x > 2 then infinity else cost e in
  Alcotest.(check bool) "unreachable" true
    (Maze.route ~width:8 ~height:8 ~cost ~sources:[ (0, 0) ] ~targets:[ (7, 7) ] = None)

let test_maze_degenerate () =
  match Maze.route ~width:4 ~height:4 ~cost:(fun _ -> 1.0) ~sources:[ (1, 1) ] ~targets:[ (1, 1) ] with
  | Some [ (1, 1) ] -> ()
  | _ -> Alcotest.fail "expected singleton path"

(* ---- Router ---------------------------------------------------------------- *)

let mk_nets specs =
  Array.of_list
    (List.mapi
       (fun i pins -> Net.create ~id:i ~name:(Printf.sprintf "n%d" i) ~pins:(Array.of_list pins))
       specs)

let check_tree_covers_pins net tree =
  Array.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "pin (%d,%d) on tree" p.Net.px p.Net.py)
        true
        (Stree.find_node tree (p.Net.px, p.Net.py) <> None))
    net.Net.pins

let test_router_two_pin () =
  let g = mk_graph () in
  let nets = mk_nets [ [ pin 1 1; pin 9 6 ] ] in
  let r = Router.route_all ~graph:g nets in
  match r.Router.trees.(0) with
  | Some tree ->
      check_tree_covers_pins nets.(0) tree;
      Alcotest.(check bool) "valid" true (Stree.validate tree = Ok ());
      Alcotest.(check int) "wirelength = hpwl for 2-pin L" (Net.hpwl nets.(0))
        (Stree.total_wirelength tree)
  | None -> Alcotest.fail "expected tree"

let test_router_multi_pin () =
  let g = mk_graph () in
  let nets = mk_nets [ [ pin 2 2; pin 12 3; pin 5 11; pin 9 9 ] ] in
  let r = Router.route_all ~graph:g nets in
  match r.Router.trees.(0) with
  | Some tree ->
      check_tree_covers_pins nets.(0) tree;
      Alcotest.(check bool) "valid" true (Stree.validate tree = Ok ())
  | None -> Alcotest.fail "expected tree"

let test_router_single_tile_net () =
  let g = mk_graph () in
  let nets = mk_nets [ [ pin 3 3; pin 3 3 ] ] in
  let r = Router.route_all ~graph:g nets in
  Alcotest.(check bool) "no tree" true (r.Router.trees.(0) = None)

let test_router_many_nets_low_overflow () =
  let g = mk_graph ~w:24 ~h:24 ~cap:8 () in
  let graph_spec =
    { Synth.default_spec with Synth.width = 24; height = 24; num_nets = 300; seed = 3 }
  in
  let _, nets = Synth.generate graph_spec in
  let r = Router.route_all ~graph:g nets in
  Array.iteri
    (fun i tree_opt ->
      match tree_opt with
      | Some tree -> check_tree_covers_pins nets.(i) tree
      | None -> ())
    r.Router.trees;
  Alcotest.(check bool) "overflow small" true (r.Router.overflow_2d < 20)

(* ---- Synth ---------------------------------------------------------------- *)

let test_synth_deterministic () =
  let g1, n1 = Synth.generate Synth.default_spec in
  let _, n2 = Synth.generate Synth.default_spec in
  Alcotest.(check int) "same net count" (Array.length n1) (Array.length n2);
  Array.iteri
    (fun i a -> Alcotest.(check bool) "same pins" true (a.Net.pins = n2.(i).Net.pins))
    n1;
  Alcotest.(check int) "grid width" Synth.default_spec.Synth.width (Graph.width g1)

let test_synth_spec_respected () =
  let spec = { Synth.default_spec with Synth.num_nets = 123; seed = 9 } in
  let _, nets = Synth.generate spec in
  Alcotest.(check int) "net count" 123 (Array.length nets);
  Array.iter
    (fun n ->
      Alcotest.(check bool) "pins in grid" true
        (Array.for_all
           (fun p ->
             p.Net.px >= 0 && p.Net.px < spec.Synth.width && p.Net.py >= 0
             && p.Net.py < spec.Synth.height)
           n.Net.pins))
    nets

(* ---- Ispd08 ---------------------------------------------------------------- *)

let sample_gr =
  "grid 4 4 2\n\
   vertical capacity 0 10\n\
   horizontal capacity 10 0\n\
   minimum width 1 1\n\
   minimum spacing 1 1\n\
   via spacing 1 1\n\
   0 0 10 10\n\
   num net 2\n\
   netA 0 2 1\n\
   5 5 1\n\
   35 25 1\n\
   netB 1 3 1\n\
   5 35 1\n\
   25 35 1\n\
   25 5 1\n\
   1\n\
   0 0 1 1 0 1 4\n"

let test_ispd_parse () =
  match Ispd08.parse sample_gr with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check int) "grid x" 4 d.Ispd08.header.Ispd08.grid_x;
      Alcotest.(check int) "nets" 2 (Array.length d.Ispd08.nets);
      let netA = d.Ispd08.nets.(0) in
      Alcotest.(check bool) "pin tile" true (netA.Net.pins.(0) = pin 0 0);
      Alcotest.(check bool) "pin tile 2" true (netA.Net.pins.(1) = pin 3 2);
      Alcotest.(check int) "adjustments" 1 (List.length d.Ispd08.adjustments)

let test_ispd_roundtrip () =
  match Ispd08.parse sample_gr with
  | Error e -> Alcotest.fail e
  | Ok d -> (
      let s = Ispd08.write d in
      match Ispd08.parse s with
      | Error e -> Alcotest.fail e
      | Ok d2 ->
          Alcotest.(check int) "same nets" (Array.length d.Ispd08.nets)
            (Array.length d2.Ispd08.nets);
          Array.iteri
            (fun i n ->
              Alcotest.(check bool) "same pins" true (n.Net.pins = d2.Ispd08.nets.(i).Net.pins))
            d.Ispd08.nets)

let test_ispd_to_graph () =
  match Ispd08.parse sample_gr with
  | Error e -> Alcotest.fail e
  | Ok d ->
      let g = Ispd08.to_graph d in
      Alcotest.(check int) "width" 4 (Graph.width g);
      (* layer 0 horizontal cap 10, layer 1 vertical cap 10 *)
      Alcotest.(check int) "h cap" 10
        (Graph.capacity g { Graph.dir = Tech.Horizontal; x = 1; y = 1 } ~layer:0);
      (* adjustment dropped capacity of edge (0,0)-(1,0) layer 1(file)=0 to 4 *)
      Alcotest.(check int) "adjusted edge" 4
        (Graph.capacity g { Graph.dir = Tech.Horizontal; x = 0; y = 0 } ~layer:0)

(* each input is [sample_gr] with one line replaced; every one must come
   back as [Error], never as an exception or a design that crashes later *)
let test_ispd_parse_error () =
  let rejected name input =
    Alcotest.(check bool) name true
      (match Ispd08.parse input with
      | Error _ -> true
      | Ok _ -> false
      | exception e ->
          Cpla_util.Exn.reraise_if_async e;
          false)
  in
  let replace_line line by =
    String.split_on_char '\n' sample_gr
    |> List.map (fun l -> if String.trim l = line then by else l)
    |> String.concat "\n"
  in
  rejected "garbage" "this is not a benchmark";
  List.iter
    (fun (name, line, by) ->
      let input = replace_line line by in
      if input = sample_gr then Alcotest.failf "%s: fixture line %S not found" name line;
      rejected name input)
    [
      ("tile width 0", "0 0 10 10", "0 0 0 10");
      ("tile height 0", "0 0 10 10", "0 0 10 0");
      ("negative pin count", "netA 0 2 1", "netA 0 -2 1");
      ("negative net count", "num net 2", "num net -1");
      ("negative adjustment count", "1", "-1");
      ("zero grid width", "grid 4 4 2", "grid 0 4 2");
      ("negative grid height", "grid 4 4 2", "grid 4 -3 2");
      ("zero layers", "grid 4 4 2", "grid 4 4 0");
      ("negative layers", "grid 4 4 2", "grid 4 4 -2");
      ("pin layer above range", "35 25 1", "35 25 3");
      ("pin layer 0", "5 5 1", "5 5 0");
    ]

let suite =
  [
    Alcotest.test_case "net basics" `Quick test_net_basics;
    Alcotest.test_case "net dedup" `Quick test_net_dedup;
    Alcotest.test_case "net needs two pins" `Quick test_net_too_few;
    Alcotest.test_case "stree of_edges" `Quick test_stree_of_edges;
    Alcotest.test_case "stree rejects diagonal" `Quick test_stree_rejects_diagonal;
    Alcotest.test_case "stree rejects cycle" `Quick test_stree_rejects_cycle;
    Alcotest.test_case "stree rejects disconnected" `Quick test_stree_rejects_disconnected;
    Alcotest.test_case "stree compress" `Quick test_stree_compress;
    Alcotest.test_case "stree compress keeps pins" `Quick test_stree_compress_keeps_pins;
    Alcotest.test_case "stree path to root" `Quick test_stree_path_to_root;
    Alcotest.test_case "stree contains point" `Quick test_stree_contains_point;
    Alcotest.test_case "segment extract" `Quick test_segment_extract;
    Alcotest.test_case "segment direction" `Quick test_segment_direction;
    Alcotest.test_case "maze straight" `Quick test_maze_straight;
    Alcotest.test_case "maze detour" `Quick test_maze_detour;
    Alcotest.test_case "maze blocked" `Quick test_maze_blocked;
    Alcotest.test_case "maze degenerate" `Quick test_maze_degenerate;
    Alcotest.test_case "router two-pin" `Quick test_router_two_pin;
    Alcotest.test_case "router multi-pin" `Quick test_router_multi_pin;
    Alcotest.test_case "router single-tile net" `Quick test_router_single_tile_net;
    Alcotest.test_case "router 300 nets" `Quick test_router_many_nets_low_overflow;
    Alcotest.test_case "synth deterministic" `Quick test_synth_deterministic;
    Alcotest.test_case "synth spec respected" `Quick test_synth_spec_respected;
    Alcotest.test_case "ispd parse" `Quick test_ispd_parse;
    Alcotest.test_case "ispd roundtrip" `Quick test_ispd_roundtrip;
    Alcotest.test_case "ispd to graph" `Quick test_ispd_to_graph;
    Alcotest.test_case "ispd parse error" `Quick test_ispd_parse_error;
  ]
