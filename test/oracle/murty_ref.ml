(* Reference k-best enumeration: Murty's partition with every subproblem
   solved from scratch.  Each child rebuilds a padded n × (n + m) weight
   matrix (n zero-weight dummy columns, so any row may stay unmatched),
   blocks its constraints with a large negative weight and runs a full
   Hungarian solve, O(n² · (n + m)) per child.  Slow but independent of
   {!Urm_bipartite.Murty}'s reoptimisation; the tests and the bench's
   murty sweep compare against it. *)

open Urm_bipartite

let big = 1e6

(* A constrained subproblem in Murty's partition.  Column [-1] denotes "row
   left unmatched" (assigned to a dummy column). *)
type subproblem = { forced : (int * int) list; forbidden : (int * int) list }

(* Solve one subproblem.  Returns the full row assignment (col or -1 per
   row) and the real-edge score, or None when constraints are unsatisfiable. *)
let solve_sub weights n m sub =
  let cols = m + n in
  let w = Array.make_matrix n cols (-.big) in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      if weights.(i).(j) > 0. then w.(i).(j) <- weights.(i).(j)
    done;
    for k = 0 to n - 1 do
      w.(i).(m + k) <- 0.
    done
  done;
  let forbid_row_real i = for j = 0 to m - 1 do w.(i).(j) <- -.big done in
  let forbid_row_dummy i = for k = 0 to n - 1 do w.(i).(m + k) <- -.big done in
  List.iter
    (fun (i, j) ->
      if j = -1 then forbid_row_real i
      else begin
        (* Row i must take column j: block every alternative for both. *)
        for j' = 0 to cols - 1 do
          if j' <> j then w.(i).(j') <- -.big
        done;
        for i' = 0 to n - 1 do
          if i' <> i then w.(i').(j) <- -.big
        done
      end)
    sub.forced;
  List.iter
    (fun (i, j) -> if j = -1 then forbid_row_dummy i else w.(i).(j) <- -.big)
    sub.forbidden;
  let row_assignment, _ = Hungarian.solve_max w in
  let feasible = ref true in
  let pairs = ref [] in
  let score = ref 0. in
  Array.iteri
    (fun i j ->
      if w.(i).(j) <= -.(big /. 2.) then feasible := false
      else if j < m then begin
        pairs := (i, j) :: !pairs;
        score := !score +. weights.(i).(j)
      end)
    row_assignment;
  if not !feasible then None
  else begin
    let full =
      Array.to_list
        (Array.mapi (fun i j -> (i, if j < m then j else -1)) row_assignment)
    in
    Some (full, { Murty.pairs = List.rev !pairs; score = !score })
  end

let key_of pairs = List.sort compare pairs

let k_best ~weights ~k =
  let n = Array.length weights in
  if n = 0 || k <= 0 then []
  else begin
    let m = Array.length weights.(0) in
    let cmp (_, _, (a : Murty.assignment)) (_, _, (b : Murty.assignment)) =
      Float.compare b.score a.score
    in
    let queue = Urm_util.Heap.create cmp in
    let push sub =
      match solve_sub weights n m sub with
      | Some (full, a) -> Urm_util.Heap.push queue (full, sub, a)
      | None -> ()
    in
    push { forced = []; forbidden = [] };
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    let found = ref 0 in
    while !found < k && not (Urm_util.Heap.is_empty queue) do
      let full, sub, (a : Murty.assignment) = Urm_util.Heap.pop queue in
      let key = key_of a.pairs in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        out := a :: !out;
        incr found;
        (* Murty partition: for each position t of the full row assignment,
           force the first t rows to their columns and forbid the t-th. *)
        let rec branch prefix = function
          | [] -> ()
          | (i, j) :: rest ->
            push
              {
                forced = List.rev_append prefix sub.forced;
                forbidden = (i, j) :: sub.forbidden;
              };
            branch ((i, j) :: prefix) rest
        in
        branch [] full
      end
    done;
    List.rev !out
  end
