type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

let precedes a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow t entry =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let fresh = Array.make (max 8 (2 * capacity)) entry in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end

let rec sift_up t k =
  if k > 0 then begin
    let parent = (k - 1) / 2 in
    if precedes t.data.(k) t.data.(parent) then begin
      let tmp = t.data.(k) in
      t.data.(k) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t k =
  let left = (2 * k) + 1 and right = (2 * k) + 2 in
  let smallest = ref k in
  if left < t.size && precedes t.data.(left) t.data.(!smallest) then
    smallest := left;
  if right < t.size && precedes t.data.(right) t.data.(!smallest) then
    smallest := right;
  if !smallest <> k then begin
    let tmp = t.data.(k) in
    t.data.(k) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let add_seq t ~key ~seq value =
  let entry = { key; seq; value } in
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let reserve t n =
  if n < 0 then invalid_arg "Pqueue.reserve: negative count";
  let first = t.next_seq in
  t.next_seq <- first + n;
  first

let add t ~key value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  add_seq t ~key ~seq value

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end

let peek_key t = if t.size = 0 then None else Some t.data.(0).key

let clear t =
  t.data <- [||];
  t.size <- 0;
  t.next_seq <- 0

(* Live entries in sequence order. Pop order is fully determined by the
   (key, seq) total order, so a queue rebuilt by [add_seq]ing these back
   behaves identically regardless of heap layout. *)
let entries t =
  let live = Array.sub t.data 0 t.size in
  Array.sort (fun a b -> compare a.seq b.seq) live;
  Array.to_list (Array.map (fun e -> (e.key, e.seq, e.value)) live)
