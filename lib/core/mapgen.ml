let index_of l =
  let h = Hashtbl.create 32 in
  List.iteri (fun i x -> Hashtbl.replace h x i) l;
  h

let weights cands =
  let targets =
    List.sort_uniq String.compare (List.map (fun c -> c.Urm_matcher.Match.dst) cands)
  in
  let sources =
    List.sort_uniq String.compare (List.map (fun c -> c.Urm_matcher.Match.src) cands)
  in
  let t_index = index_of targets and s_index = index_of sources in
  let t_arr = Array.of_list targets and s_arr = Array.of_list sources in
  let weights = Array.make_matrix (Array.length t_arr) (Array.length s_arr) 0. in
  List.iter
    (fun c ->
      let i = Hashtbl.find t_index c.Urm_matcher.Match.dst in
      let j = Hashtbl.find s_index c.Urm_matcher.Match.src in
      weights.(i).(j) <- Float.max weights.(i).(j) c.Urm_matcher.Match.score)
    cands;
  (t_arr, s_arr, weights)

(* The one probability rule of a ranked set: each mapping's score over
   the set's total, summed in rank order from 0. *)
let by_score ms =
  let total = List.fold_left (fun acc (m : Mapping.t) -> acc +. m.score) 0. ms in
  List.map (fun (m : Mapping.t) -> Mapping.with_prob m (m.score /. total)) ms

let from_candidates ~h cands =
  if cands = [] then []
  else begin
    let t_arr, s_arr, weights = weights cands in
    Urm_bipartite.Murty.k_best ~weights ~k:h
    |> List.filter (fun (a : Urm_bipartite.Murty.assignment) -> a.score > 0.)
    |> List.mapi (fun id (a : Urm_bipartite.Murty.assignment) ->
           let pairs = List.map (fun (i, j) -> (t_arr.(i), s_arr.(j))) a.pairs in
           Mapping.make ~id ~prob:0. ~score:a.score pairs)
    |> by_score
  end

let prefix ~h ms = by_score (List.filteri (fun i (m : Mapping.t) -> i < h && m.score > 0.) ms)

(* Murty's k-best enumeration is exact but its cost per mapping grows with
   the score matrix, which rules it out for the anytime experiments at
   h = 10⁴..10⁶.  [synthetic] trades exactness for volume: the greedy
   rank-1 matching first (so the head of the set is the plausible best),
   then randomized one-to-one variants — each target attribute is either
   dropped (small probability) or matched to a score-weighted choice among
   its still-unused candidate sources — deduplicated structurally and
   normalised by total score.  Deterministic from [seed]. *)
let synthetic ?(seed = 42) ~h cands =
  if cands = [] || h <= 0 then []
  else begin
    let by_target : (string, (string * float) list) Hashtbl.t =
      Hashtbl.create 32
    in
    List.iter
      (fun c ->
        let t = c.Urm_matcher.Match.dst
        and s = c.Urm_matcher.Match.src
        and w = c.Urm_matcher.Match.score in
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_target t) in
        if not (List.mem_assoc s prev) then
          Hashtbl.replace by_target t ((s, w) :: prev))
      cands;
    let targets =
      Hashtbl.fold (fun t _ acc -> t :: acc) by_target []
      |> List.sort String.compare |> Array.of_list
    in
    let greedy () =
      let used = Hashtbl.create 16 in
      Array.fold_left
        (fun acc t ->
          let best =
            List.fold_left
              (fun best (s, w) ->
                if Hashtbl.mem used s then best
                else
                  match best with
                  | Some (_, bw) when bw > w -> best
                  | Some (bs, bw) when bw = w && String.compare bs s <= 0 ->
                    best
                  | _ -> Some (s, w))
              None (Hashtbl.find by_target t)
          in
          match best with
          | None -> acc
          | Some (s, w) ->
            Hashtbl.replace used s ();
            ((t, s), w) :: acc)
        [] targets
    in
    let rng = Urm_util.Prng.create seed in
    let random_matching () =
      let order = Array.copy targets in
      Urm_util.Prng.shuffle rng order;
      let used = Hashtbl.create 16 in
      Array.fold_left
        (fun acc t ->
          if Urm_util.Prng.bool rng 0.15 then acc
          else
            let avail =
              List.filter
                (fun (s, _) -> not (Hashtbl.mem used s))
                (Hashtbl.find by_target t)
            in
            let total = List.fold_left (fun a (_, w) -> a +. w) 0. avail in
            if total <= 0. then acc
            else begin
              let x = Urm_util.Prng.float rng *. total in
              let rec pick acc_w = function
                | [ (s, w) ] -> (s, w)
                | (s, w) :: rest ->
                  let acc_w = acc_w +. w in
                  if x < acc_w then (s, w) else pick acc_w rest
                | [] -> assert false
              in
              let s, w = pick 0. avail in
              Hashtbl.replace used s ();
              ((t, s), w) :: acc
            end)
        [] order
    in
    (* Canonical key as one string: the generic [Hashtbl.hash] examines
       only a bounded prefix of a structured key, which at h = 10⁵ makes a
       pair-list table collide into O(h²) scans; a flat string is hashed
       wholesale. *)
    let canon pairs =
      List.sort String.compare
        (List.map (fun ((t, s), _) -> t ^ "=" ^ s) pairs)
      |> String.concat ";"
    in
    let seen = Hashtbl.create (2 * h) in
    let out = ref [] and count = ref 0 in
    let admit pairs =
      if pairs <> [] then begin
        let key = canon pairs in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          let score = List.fold_left (fun a (_, w) -> a +. w) 0. pairs in
          out := (List.map fst pairs, score) :: !out;
          incr count
        end
      end
    in
    admit (greedy ());
    let attempts = ref 0 in
    let max_attempts = 20 * h in
    while !count < h && !attempts < max_attempts do
      incr attempts;
      admit (random_matching ())
    done;
    List.rev !out
    |> List.mapi (fun id (pairs, score) -> Mapping.make ~id ~prob:0. ~score pairs)
    |> by_score
  end

let generate ?threshold ~h ~source ~target () =
  let cands = Urm_matcher.Match.candidates ?threshold ~source ~target () in
  from_candidates ~h cands

let top_mapping_size ?threshold ~source ~target () =
  match generate ?threshold ~h:1 ~source ~target () with
  | [] -> 0
  | m :: _ -> Mapping.size m
