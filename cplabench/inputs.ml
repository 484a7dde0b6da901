(* Seeded workload inputs.  Every design a workload runs is generated here
   from the --seed argument; the product only ever sees the generated .gr
   files (or, for reopt-dense, the designs they describe). *)

open Cpla_route
module Graph = Cpla_grid.Graph
module Tech = Cpla_grid.Tech

let default_seed = 0

let suite_spec name = (Cpla_expt.Suite.find name).Cpla_expt.Suite.spec

(* Seeded variant of a design: every pin moves by at most one tile in x and
   y.  The floorplan (blockages, hotspots, net sizes) stays that of the
   generator seed, so a workload keeps its congestion from seed to seed
   while the instance changes.  Seed 0 is the design itself, so default-seed
   numbers are those of the suite designs (adaptec1 = generator seed 101,
   adaptec2 = 102, newblue1 = 110) the ROADMAP measured. *)
let jitter ~seed ~width ~height nets =
  if seed = 0 then nets
  else begin
    let rng = Cpla_util.Rng.create (0x9e3779b9 + seed) in
    let clamp hi v = max 0 (min (hi - 1) v) in
    Array.map
      (fun (n : Net.t) ->
        let pins =
          Array.map
            (fun (p : Net.pin) ->
              {
                p with
                Net.px = clamp width (p.Net.px + Cpla_util.Rng.int_in rng (-1) 1);
                py = clamp height (p.Net.py + Cpla_util.Rng.int_in rng (-1) 1);
              })
            n.Net.pins
        in
        Net.create ~id:n.Net.id ~name:n.Net.name ~pins)
      nets
  end

(* A synthetic design as an ISPD'08 design.  Blockages become capacity
   adjustments, so [Ispd08.to_graph] rebuilds exactly the generated grid. *)
let design_of_spec ?(seed = 0) (spec : Synth.spec) =
  let graph, nets = Synth.generate spec in
  let nets = jitter ~seed ~width:spec.Synth.width ~height:spec.Synth.height nets in
  let tech = Graph.tech graph in
  let nl = Graph.num_layers graph in
  let cap dir l = if Tech.layer_dir tech l = dir then spec.Synth.capacity else 0 in
  let header =
    {
      Ispd08.grid_x = spec.Synth.width;
      grid_y = spec.Synth.height;
      num_layers = nl;
      vertical_capacity = Array.init nl (cap Tech.Vertical);
      horizontal_capacity = Array.init nl (cap Tech.Horizontal);
      min_width = Array.make nl 1;
      min_spacing = Array.make nl 1;
      via_spacing = Array.make nl 1;
      lower_left_x = 0;
      lower_left_y = 0;
      tile_width = 10;
      tile_height = 10;
    }
  in
  let adjustments = ref [] in
  Graph.iter_edges graph (fun e ->
      List.iter
        (fun l ->
          let c = Graph.capacity graph e ~layer:l in
          if c < spec.Synth.capacity then begin
            let to_x, to_y =
              match e.Graph.dir with
              | Tech.Horizontal -> (e.Graph.x + 1, e.Graph.y)
              | Tech.Vertical -> (e.Graph.x, e.Graph.y + 1)
            in
            adjustments :=
              {
                Ispd08.from_x = e.Graph.x;
                from_y = e.Graph.y;
                from_layer = l + 1;
                to_x;
                to_y;
                to_layer = l + 1;
                new_capacity = c;
              }
              :: !adjustments
          end)
        (Graph.edge_layers graph e));
  { Ispd08.header; nets; adjustments = List.rev !adjustments }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc content)

let write_gr ?seed ~name ~dir spec =
  let path = Filename.concat dir (name ^ ".gr") in
  write_file path (Ispd08.write (design_of_spec ?seed spec));
  path

(* Parse a .gr file the way `cpla optimize --file` does. *)
let load_gr path =
  match Ispd08.parse (read_file path) with
  | Ok design -> (Ispd08.to_graph design, design.Ispd08.nets)
  | Error msg -> failwith (Printf.sprintf "cannot parse %s: %s" path msg)

(* [per_shape] instances of each suite shape in [names], labelled
   "<name>a", "<name>b", ..., with their jitter seeds, shapes interleaved.
   An instance's outer-loop iteration count (2 to 5) moves its job time by
   up to 2x, so a run averages over several.  Instance a of seed 0 is the
   suite design itself. *)
let instances ~seed ~per_shape names =
  List.concat_map
    (fun v ->
      List.map
        (fun name -> (Printf.sprintf "%s%c" name (Char.chr (Char.code 'a' + v)), name, (per_shape * seed) + v))
        names)
    (List.init per_shape Fun.id)

(* ---- daemon-mix stream --------------------------------------------------- *)

(* Small 4-layer designs (24x24..32x32, 600..1000 nets).  Floorplans and
   sizes are fixed (sizes follow a low-discrepancy sequence), so every seed
   runs the same mix; the seed jitters their pins (see [stream]). *)
let small_spec ~index =
  let frac k = Float.rem (float_of_int (index + 1) *. k) 1.0 in
  let w = 24 + int_of_float (Float.round (8.0 *. frac 0.6180339887)) in
  {
    Synth.default_spec with
    Synth.name = Printf.sprintf "mix%03d" index;
    width = w;
    height = w;
    num_layers = 4;
    num_nets = 600 + int_of_float (Float.round (400.0 *. frac 0.7548776662));
    capacity = 8;
    seed = 50_000 + index;
    mean_extra_pins = 2.2;
    hotspots = 3;
  }

type arrival = {
  due_s : float;  (** offset from the start of the stream *)
  input : int;  (** index into the stream's distinct inputs *)
}

(* Resubmissions come in windows of this many; see [stream]. *)
let window = 5

(* [count] arrivals at a fixed [rate]: even positions submit a fresh input,
   odd positions resubmit an earlier one.  The k-th resubmission of window
   w > 0 is a seeded permutation of the fresh inputs of window w - 1; in
   window 0 each input is resubmitted right after it is sent.  So every
   seed resubmits the same inputs the same number of times, and the work
   of a run does not hinge on which (large or small) inputs a seed happens
   to repeat.  Returns the arrivals and, per distinct input, its spec and
   jitter seed. *)
let stream ~seed ~rate ~count =
  let rng = Cpla_util.Rng.create (0x5eed + seed) in
  let fresh_count = (count + 1) / 2 in
  let specs = Array.init fresh_count (fun index -> (small_spec ~index, (1000 * seed) + index)) in
  let resubmit = Array.init (count / 2) Fun.id in
  let windows = (Array.length resubmit + window - 1) / window in
  for w = 1 to windows - 1 do
    let lo = w * window in
    let n = min window (Array.length resubmit - lo) in
    let previous = Array.init window (fun j -> lo - window + j) in
    Cpla_util.Rng.shuffle rng previous;
    Array.blit previous 0 resubmit lo n
  done;
  let arrivals =
    Array.init count (fun i ->
        let due_s = float_of_int i /. rate in
        if i mod 2 = 0 then { due_s; input = i / 2 } else { due_s; input = resubmit.(i / 2) })
  in
  (arrivals, specs)
