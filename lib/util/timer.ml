let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let time_only f = snd (time f)

let repeat ~warmup ~runs f =
  assert (runs > 0);
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let total = ref 0. in
  for _ = 1 to runs do
    total := !total +. time_only f
  done;
  !total /. float_of_int runs

module Stopwatch = struct
  type t = { mutable acc : float; mutable started : float option }

  let create () = { acc = 0.; started = None }

  let start t =
    match t.started with
    | Some _ -> invalid_arg "Stopwatch.start: already running"
    | None -> t.started <- Some (now ())

  let stop t =
    match t.started with
    | None -> invalid_arg "Stopwatch.stop: not running"
    | Some t0 ->
      t.acc <- t.acc +. (now () -. t0);
      t.started <- None

  let elapsed t =
    match t.started with
    | None -> t.acc
    | Some t0 -> t.acc +. (now () -. t0)

  let reset t =
    t.acc <- 0.;
    t.started <- None

  let timed t f =
    start t;
    Fun.protect ~finally:(fun () -> stop t) f
end
