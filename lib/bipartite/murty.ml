type assignment = { pairs : (int * int) list; score : float }

let pp_assignment ppf a =
  Format.fprintf ppf "score=%.4f {%s}" a.score
    (String.concat "; "
       (List.map (fun (i, j) -> Printf.sprintf "%d→%d" i j) a.pairs))

(* A subproblem of Murty's partition and its optimal solution.  Children
   branch over rows in ascending order, so every subproblem has the same
   shape: rows before [row] keep their columns in [state], row [row] may
   not take any column of [bans] (column [-1] stands for "unmatched"), and
   later rows are free. *)
type node = { score : float; row : int; bans : int list; state : Hungarian.t }

let k_best ~weights ~k =
  let n = Array.length weights in
  if n = 0 || k <= 0 then []
  else begin
    let m = Array.length weights.(0) in
    (* Square padding to N = n + m: columns m.. are slots for unmatched
       rows, rows n.. take the columns no real row does.  Padding edges
       cost 0, a real edge costs minus its weight, a missing edge
       (weight <= 0) is infinite.  With every column assigned, no free
       column is left with a stale potential after a reoptimisation. *)
    let size = n + m in
    let base =
      Array.init size (fun r ->
          Array.init size (fun c ->
              if r >= n || c >= m then 0.
              else if weights.(r).(c) > 0. then -.weights.(r).(c)
              else infinity))
    in
    (* A row before the branch row is already on its column whenever the
       path reaches it, so it has nowhere else to go (an unmatched one
       keeps its own slot: every slot costs it the same). *)
    let frozen = Array.make size infinity in
    let banned = Array.make size 0. in
    let score_of cols =
      let s = ref 0. in
      for i = 0 to n - 1 do
        if cols.(i) < m then s := !s +. weights.(i).(cols.(i))
      done;
      !s
    in
    let root = Hungarian.create ~rows:size ~cols:size in
    for r = 0 to size - 1 do
      ignore (Hungarian.augment root ~cost:(Array.get base) r : bool)
    done;
    let queue =
      Urm_util.Heap.create (fun (a : node) (b : node) -> Float.compare b.score a.score)
    in
    Urm_util.Heap.push queue
      { score = score_of (Hungarian.assignment root); row = 0; bans = []; state = root };
    let out = ref [] in
    let found = ref 0 in
    while !found < k && not (Urm_util.Heap.is_empty queue) do
      let node = Urm_util.Heap.pop queue in
      let cols = Hungarian.assignment node.state in
      let pairs = ref [] in
      for i = n - 1 downto 0 do
        if cols.(i) < m then pairs := (i, cols.(i)) :: !pairs
      done;
      out := { pairs = !pairs; score = node.score } :: !out;
      incr found;
      (* Murty partition of the rest of the node's space: child i keeps
         rows before i, moves row i off its column and frees the rows
         after it.  Rows before [node.row] are fixed already, so their
         children are empty.  Each child starts from a copy of this
         node's potentials and assignment, raises costs only (so the
         potentials stay feasible), frees row i and needs one augmenting
         path. *)
      if !found < k then
        for i = node.row to n - 1 do
          let col = if cols.(i) < m then cols.(i) else -1 in
          let bans = if i = node.row then col :: node.bans else [ col ] in
          Array.blit base.(i) 0 banned 0 size;
          List.iter
            (fun c ->
              if c >= 0 then banned.(c) <- infinity
              else Array.fill banned m n infinity)
            bans;
          let state = Hungarian.copy node.state in
          Hungarian.release state i;
          let cost r = if r < i then frozen else if r = i then banned else base.(r) in
          if Hungarian.augment state ~cost i then
            Urm_util.Heap.push queue
              { score = score_of (Hungarian.assignment state); row = i; bans; state }
        done
    done;
    List.rev !out
  end
