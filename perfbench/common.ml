(* Shared machinery of the benchmark: the closed-loop op loop, latency
   samples per op class, outside-in trace spans, host drift diagnostics
   and the result line. *)

module Json = Urm_util.Json

let now = Unix.gettimeofday
let ms s = s *. 1000.
let percentile = Urm_util.Stats.percentile_or_zero
let median xs = percentile 0.5 xs
let mean = function [] -> 0. | xs -> Urm_util.Stats.mean xs
let ratio a b = if b = 0. then 0. else a /. b

(* Benchmark-side diagnostics go to stderr; stdout carries the summary
   lines and, last, the result object. *)
let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Spans.  Recorded only by the benchmark's own code, around calls into
   each layer's public functions; kept in memory and folded into per-layer
   self times when the run ends.  A span's self time is its duration minus
   its direct children's.  Layers whose work happens inside one opaque
   public call get a child measured by a probe — the same public calls
   re-run outside the op (e.g. a plan driven into a no-op sink) — so the
   parent's self time is the remainder. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; dur : float }

  let on = ref false
  let probe_total = ref 0.
  let spans : span list ref = ref []
  let stack : int list ref = ref []
  let next_id = ref 0
  let counts : (string, float) Hashtbl.t = Hashtbl.create 16

  let fresh () =
    incr next_id;
    !next_id

  (* [span_id name f] runs [f] inside a span that is a child of the
     innermost open span; returns [f]'s result and the span id ([0] when
     tracing is off). *)
  let span_id name f =
    if not !on then (f (), 0)
    else begin
      let id = fresh () in
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      stack := id :: !stack;
      let t0 = now () and p0 = !probe_total in
      let finish () =
        stack := List.tl !stack;
        spans :=
          { id; parent; name; dur = now () -. t0 -. (!probe_total -. p0) }
          :: !spans
      in
      match f () with
      | v ->
        finish ();
        (v, id)
      | exception e ->
        finish ();
        raise e
    end

  let span name f = fst (span_id name f)

  (* A child measured outside its parent's interval (a probe); returns
     its id ([0] when tracing is off). *)
  let attach ~parent name dur =
    if !on && parent > 0 then begin
      let id = fresh () in
      spans := { id; parent; name; dur } :: !spans;
      id
    end
    else 0

  (* [probe f] runs [f] untraced and returns its result and duration.
     Probe time is excluded from every enclosing span and from the op's
     recorded latency. *)
  let probe f =
    let saved = !on in
    on := false;
    let t0 = now () in
    let finish () =
      on := saved;
      probe_total := !probe_total +. (now () -. t0)
    in
    match f () with
    | v ->
      let d = now () -. t0 in
      finish ();
      (v, d)
    | exception e ->
      finish ();
      raise e

  (* [untraced f] runs [f] with no spans recorded, e.g. an answer check
     outside every op; unlike {!probe} its time is not taken from the
     enclosing spans. *)
  let untraced f =
    let saved = !on in
    on := false;
    Fun.protect ~finally:(fun () -> on := saved) f

  let count name n =
    if !on then
      Hashtbl.replace counts name
        (n +. Option.value ~default:0. (Hashtbl.find_opt counts name))

  let counted name = Option.value ~default:0. (Hashtbl.find_opt counts name)

  (* Summed duration of each span's direct children, by parent id. *)
  let child_sums () =
    let children = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent > 0 then
          Hashtbl.replace children s.parent
            (s.dur +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
      !spans;
    children

  (* Total self time per span name, seconds. *)
  let self_times () =
    let children = child_sums () in
    let selfs = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let self =
          s.dur -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
        in
        Hashtbl.replace selfs s.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt selfs s.name)))
      !spans;
    selfs

  (* The breakdown's own check, per parent span name: the total duration
     of those spans and of their direct children.  Children adding up to
     more than their parent mean a child (usually a probe) measured more
     work than the parent did, and the parent's self time is wrong. *)
  let parent_totals () =
    let children = child_sums () in
    let totals = Hashtbl.create 16 in
    List.iter
      (fun s ->
        match Hashtbl.find_opt children s.id with
        | None -> ()
        | Some c ->
          let p0, c0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals s.name) in
          Hashtbl.replace totals s.name (p0 +. s.dur, c0 +. c))
      !spans;
    Hashtbl.fold (fun name (p, c) acc -> (name, p, c) :: acc) totals []

  (* The duration of a finished span. *)
  let duration id =
    match List.find_opt (fun s -> s.id = id) !spans with Some s -> s.dur | None -> 0.

  let durations name =
    List.filter_map (fun s -> if s.name = name then Some s.dur else None) !spans
end

(* A fixed reference kernel — integer hashing and float arithmetic over an
   L1-resident array, independent of the code under test.  Its time moves
   only with the host. *)
let ref_kernel_ms ~reps =
  let a = Array.init 4096 (fun i -> float_of_int i) in
  let t0 = now () in
  let acc = ref 0. in
  for r = 1 to reps do
    for i = 0 to 4095 do
      let j = (i * 2654435761 + r) land 4095 in
      acc := !acc +. (a.(j) *. 1.000001);
      a.(i) <- a.(j) +. 0.5
    done
  done;
  ignore (Sys.opaque_identity !acc);
  ms (now () -. t0)

let host_sample () = ref_kernel_ms ~reps:40

(* ------------------------------------------------------------------ *)
(* The closed loop: one client, the next op only after the
   previous one returned. *)

(* An op executes and hands back its answer check, which runs outside the
   timed interval: [None] when the answer is right, [Some why] when not. *)
type op = { cls : string; run : unit -> unit -> string option }

(* One round's ops, with the host reference kernel timed just before and
   just after it (outside the timed window). *)
type round = {
  rate : float;  (** ops per timed second *)
  lat : (string * float) list;  (** (class, seconds) per op *)
  before : float;
  after : float;
}

type stats = {
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : round list;  (** newest first *)
  mutable ops : int;
}

let fresh_stats () = { attempted = 0; failed = 0; rounds = []; ops = 0 }

let class_samples rounds cls =
  List.concat_map
    (fun r -> List.filter_map (fun (c, dt) -> if c = cls then Some dt else None) r.lat)
    rounds

(* The host this was tuned on runs at its base speed most of the time but
   slows down by up to 2x for seconds at a time, and every op slows with
   it.  The end-to-end statistics therefore use the calm rounds: those
   during which the reference kernel, before and after the round, ran
   within [slow_factor] of the run's fastest decile.  When the calm rounds
   hold fewer than [min_samples] samples of some op class, the next
   calmest rounds are added until every class has [min_samples] (or all
   of its samples), so ten samples lie beyond every reported median. *)
let slow_factor = 1.2
let min_samples = 20

let host_rounds st =
  let host r = Float.max r.before r.after in
  let floor = percentile 0.1 (List.concat_map (fun r -> [ r.before; r.after ]) st.rounds) in
  let classes = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.lat) st.rounds) in
  let needed = List.map (fun c -> (c, min min_samples (List.length (class_samples st.rounds c)))) classes in
  let enough rs = List.for_all (fun (c, n) -> List.length (class_samples rs c) >= n) needed in
  let rec take acc = function
    | r :: rest when host r <= slow_factor *. floor || not (enough acc) -> take (r :: acc) rest
    | _ -> acc
  in
  take [] (List.stable_sort (fun a b -> compare (host a) (host b)) st.rounds)

(* Latency samples of one op class over the calm rounds. *)
let samples st cls = class_samples (host_rounds st) cls

(* Completed ops per timed second of a typical round: the median over
   the calm rounds. *)
let ops_per_s st = median (List.map (fun r -> r.rate) (host_rounds st))

(* Every op's latency, all rounds. *)
let all_latencies st = List.concat_map (fun r -> List.map snd r.lat) st.rounds

let fail st why =
  st.failed <- st.failed + 1;
  if st.failed <= 5 then note "perfbench: wrong answer: %s" why

(* Runs one op; returns its latency and the seconds spent outside the
   timed interval. *)
let exec st op =
  st.attempted <- st.attempted + 1;
  let t0 = now () and p0 = !Trace.probe_total in
  let outcome =
    match Trace.span "op" op.run with
    | check -> Ok check
    | exception e -> Error (Printexc.to_string e)
  in
  let probes = !Trace.probe_total -. p0 in
  let dt = now () -. t0 -. probes in
  st.ops <- st.ops + 1;
  let c0 = now () -. probes in
  (match outcome with
  | Ok check -> (
    match check () with
    | None -> ()
    | Some why -> fail st (op.cls ^ ": " ^ why)
    | exception e -> fail st (op.cls ^ ": check raised " ^ Printexc.to_string e))
  | Error e -> fail st (op.cls ^ ": " ^ e));
  (dt, now () -. c0)

(* [drive st ~rounds ~from ?seconds ?max_rounds ?after_round ()] runs
   whole rounds [from], [from + 1], … until [seconds] of timed wall time
   have passed (after at least one round) or [max_rounds] rounds are
   done.  Whole rounds keep the op mix independent of where the clock runs
   out.  [after_round n] runs outside the timed window once [n] rounds are
   done.  Returns the number of rounds run. *)
let drive st ~rounds ~from ?(seconds = infinity) ?(max_rounds = max_int) ?(after_round = ignore) () =
  let t_start = now () in
  let untimed = ref 0. in
  let untimed_sample () =
    let k0 = now () in
    let v = host_sample () in
    untimed := !untimed +. (now () -. k0);
    v
  in
  let before = ref (untimed_sample ()) in
  let n = ref 0 in
  while !n < max_rounds && (!n = 0 || now () -. t_start -. !untimed < seconds) do
    let r0 = now () and u0 = !untimed in
    let lat =
      List.map
        (fun op ->
          let dt, off = exec st op in
          untimed := !untimed +. off;
          (op.cls, dt))
        (rounds (from + !n))
    in
    let rate = float_of_int (List.length lat) /. (now () -. r0 -. (!untimed -. u0)) in
    let after = untimed_sample () in
    st.rounds <- { rate; lat; before = !before; after } :: st.rounds;
    before := after;
    incr n;
    let k0 = now () in
    after_round !n;
    untimed := !untimed +. (now () -. k0)
  done;
  !n

(* The traced part of a [--trace 1] run: [n] untraced rounds interleaved
   with [n] traced ones, so both see the same host conditions and their
   difference is the tracing overhead.  Their ops count towards [st]. *)
let interleaved st ~rounds ~from ~n =
  let untraced = fresh_stats () and traced = fresh_stats () in
  for i = 0 to n - 1 do
    ignore (drive untraced ~rounds ~from:(from + (2 * i)) ~max_rounds:1 ());
    Trace.on := true;
    Fun.protect
      ~finally:(fun () -> Trace.on := false)
      (fun () -> ignore (drive traced ~rounds ~from:(from + (2 * i) + 1) ~max_rounds:1 ()))
  done;
  st.attempted <- st.attempted + untraced.attempted + traced.attempted;
  st.failed <- st.failed + untraced.failed + traced.failed;
  (untraced, traced)

(* Deterministic permutation of a round's ops from (seed, round). *)
let shuffle ~seed ~round xs =
  let a = Array.of_list xs in
  Urm_util.Prng.shuffle (Urm_util.Prng.create (Hashtbl.hash (seed, round, 0x5eed))) a;
  Array.to_list a

let rng_for ~seed ~round salt = Random.State.make [| seed; round; salt |]

(* ------------------------------------------------------------------ *)
(* Host diagnostics *)

(* Peak resident set (VmHWM) of a process, MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Restarts a process's VmHWM from its current resident set (Linux's
   [clear_refs] code 5); false when the kernel refuses. *)
let reset_peak pid =
  match open_out (Printf.sprintf "/proc/%d/clear_refs" pid) with
  | exception Sys_error _ -> false
  | oc -> (
    match output_string oc "5"; close_out oc with
    | () -> true
    | exception Sys_error _ -> close_out_noerr oc; false)

(* CPU seconds (user + system) of another live process. *)
let proc_cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    (* Fields after the parenthesised command name; utime and stime are
       fields 14 and 15 of the whole line, in clock ticks (100 Hz). *)
    let rest =
      let i = String.rindex line ')' in
      String.sub line (i + 2) (String.length line - i - 2)
    in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    float_of_string (f.(11)) /. 100. +. float_of_string f.(12) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The run's timed-window host figures, taken around the measurement. *)
type host = { cpu0 : float; wall0 : float; gc0 : int }

let host_start ?(extra_cpu = fun () -> 0.) () =
  {
    cpu0 = self_cpu_s () +. extra_cpu ();
    wall0 = now ();
    gc0 = (Gc.quick_stat ()).Gc.major_collections;
  }

let host_metrics ?(extra_cpu = fun () -> 0.) h st =
  let cpu = self_cpu_s () +. extra_cpu () -. h.cpu0 in
  let wall = now () -. h.wall0 in
  [
    ("host.cpu_s", cpu);
    ("host.wait_s", Float.max 0. (wall -. cpu));
    ("host.ref_ms", median (List.map (fun r -> r.after) st.rounds));
    ( "gc.major_collections",
      float_of_int ((Gc.quick_stat ()).Gc.major_collections - h.gc0) );
  ]

let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let print_result ~correct st metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (number (if Float.is_finite m.value then m.value else 0.))
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct st.attempted st.failed body
