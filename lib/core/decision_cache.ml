type 'a t = {
  capacity : int;
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* the table's keys, oldest first *)
  mutable evictions : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Decision_cache: capacity < 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    order = Queue.create ();
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let evictions t = t.evictions
let find t key = Hashtbl.find_opt t.table key

(* Entries leave only by eviction, so [order] holds exactly the
   table's keys and one eviction always makes room. *)
let add t key value =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.capacity then begin
      Hashtbl.remove t.table (Queue.take t.order);
      t.evictions <- t.evictions + 1
    end;
    Queue.add key t.order
  end;
  Hashtbl.replace t.table key value

let iter f t = Hashtbl.iter f t.table
