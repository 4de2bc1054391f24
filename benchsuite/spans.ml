(* Spans the benchmark records around its own calls into each layer:
   name, start, end, parent, and the id of the launch they belong to.
   A disabled recorder calls straight through without reading the
   clock, so the untraced end-to-end runs carry no tracing cost. Spans
   stay in memory and are written out as Chrome trace-event JSON when
   the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for a root *)
  launch : int; (* shared by every span of one launch; 0 outside one *)
  detail : string; (* e.g. the cache entry a storage span touched *)
  start : float; (* seconds on the monotonic clock *)
  stop : float;
}

type t = {
  enabled : bool;
  origin : float;
  mutable next : int;
  mutable open_ : (int * int) list; (* (id, launch), innermost first *)
  mutable recent : span list; (* finished since the last [take] *)
  mutable all : span list; (* every finished span, newest first *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ~enabled =
  { enabled; origin = now (); next = 0; open_ = []; recent = []; all = [] }

let duration s = s.stop -. s.start

let record t ?launch ?(detail = "") name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent, inherited =
      match t.open_ with (p, l) :: _ -> (p, l) | [] -> (-1, 0)
    in
    let launch = Option.value launch ~default:inherited in
    t.open_ <- (id, launch) :: t.open_;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let s = { id; name; parent; launch; detail; start; stop = now () } in
        t.open_ <- List.tl t.open_;
        t.recent <- s :: t.recent;
        t.all <- s :: t.all)
  end

(* The spans finished since the previous call, oldest first. *)
let take t =
  let r = List.rev t.recent in
  t.recent <- [];
  r

(* Each span's duration minus the part its direct children cover. *)
let self_times (spans : span list) : (span * float) list =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id)))
    spans

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let to_json t : Check.Json.t =
  let us x = Check.Json.Int (int_of_float (Float.round (x *. 1e6))) in
  let event s =
    Check.Json.Obj
      [
        ("name", Str s.name);
        ("ph", Str "X");
        ("ts", us (s.start -. t.origin));
        ("dur", us (duration s));
        ("pid", Int 1);
        ("tid", Int 1);
        ( "args",
          Obj
            [
              ("id", Int s.id);
              ("parent", Int s.parent);
              ("launch", Int s.launch);
              ("detail", Str s.detail);
            ] );
      ]
  in
  Check.Json.Obj
    [
      ("displayTimeUnit", Str "ms");
      ("traceEvents", List (List.rev_map event t.all));
    ]
