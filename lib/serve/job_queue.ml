type 'a t = {
  capacity : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Job_queue.create: negative capacity";
  {
    capacity;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    closed = false;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t x =
  locked t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  locked t (fun () ->
      let rec wait () =
        match Queue.take_opt t.items with
        | Some x -> Some x
        | None ->
            if t.closed then None
            else begin
              Condition.wait t.nonempty t.mutex;
              wait ()
            end
      in
      wait ())

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let depth t = locked t (fun () -> Queue.length t.items)
let capacity t = t.capacity
