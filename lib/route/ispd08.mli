(** ISPD'08 global-routing benchmark format I/O.

    Parses the textual `.gr` format (grid/capacity header, net list with
    absolute pin coordinates, capacity adjustments) into this library's net
    and grid types, and writes designs back out in the same format.  The
    reproduction's experiments run on synthetic designs ({!Synth}) because
    the benchmark files are not redistributable, but users who have them can
    load the real thing through this module. *)

type header = {
  grid_x : int;
  grid_y : int;
  num_layers : int;
  vertical_capacity : int array;    (** per layer *)
  horizontal_capacity : int array;  (** per layer *)
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
  from_layer : int;  (** 1-based, as in the file *)
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

val parse : string -> (design, string) result
(** Parse file contents.  Pin coordinates are converted to tile indices;
    pins are deduplicated per tile and single-tile nets are kept (the router
    will skip them).  Layers in the file are 1-based and converted to
    0-based.  Never raises: malformed input — a grid smaller than 2×2 or
    with fewer than 2 layers, a tile width or height below 1, a negative
    net, pin or adjustment count, a pin layer outside [1..layers], a
    missing or non-integer token — gives [Error]. *)

val write : design -> string
(** Inverse of [parse] up to whitespace (pins are written at tile centres). *)

val to_graph : design -> Cpla_grid.Graph.t
(** Build the grid graph: a default technology resized to the header's layer
    count with directions taken from which capacity vector is non-zero per
    layer, uniform capacities from the header, and adjustments applied as
    capacity reductions. *)
