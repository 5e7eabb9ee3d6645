(* Benchmark-side spans: one record per call the benchmark makes into a
   layer (id, parent id, workload/run tag, start, end), kept in memory and
   written once at exit. Off unless a traced run turns them on, so timed
   runs pay nothing. A layer's self time is its spans' time minus the time
   of their child spans. *)

type span = {
  id : int;
  parent : int;  (** 0 at the root *)
  tag : string;
  name : string;  (** the layer *)
  start_ns : int;
  end_ns : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let with_span ~tag name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start_ns = Bstats.now_ns () in
    let finish () =
      let end_ns = Bstats.now_ns () in
      stack := List.tl !stack;
      recorded := { id; parent; tag; name; start_ns; end_ns } :: !recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Per layer: (name, span count, total ns, self ns), sorted by self time,
   largest first. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      Hashtbl.replace child s.parent
        (d + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.end_ns - s.start_ns in
      let self = d - Option.value ~default:0 (Hashtbl.find_opt child s.id) in
      let n, tot, slf =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot + d, slf + self))
    !recorded;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc)
    by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* One JSON object per line, oldest span first. *)
let write file =
  let dir = Filename.dirname file in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"tag\": %S, \"name\": %S, \
             \"start_ns\": %d, \"end_ns\": %d}\n"
            s.id s.parent s.tag s.name s.start_ns s.end_ns)
        (List.rev !recorded))
