module Busy_resource = struct
  type t = { mutable free_at : int }

  let create () = { free_at = 0 }

  let acquire t ~now ~hold_for =
    let start = max now t.free_at in
    t.free_at <- start + hold_for;
    t.free_at

  let is_busy t ~now = t.free_at > now
end

module Batcher = struct
  type 'a t = { mutable items : 'a list; mutable count : int }

  let create () = { items = []; count = 0 }

  let join t x =
    let pos = t.count in
    t.items <- x :: t.items;
    t.count <- t.count + 1;
    pos

  let drain t =
    let xs = List.rev t.items in
    t.items <- [];
    t.count <- 0;
    xs

  let size t = t.count
end
