(* Shortest-augmenting-path Hungarian algorithm with row/column potentials.
   Internally 1-indexed (index 0 is the virtual "unassigned" marker), the
   standard formulation; see e.g. Burkard, Dell'Amico & Martello,
   "Assignment Problems", ch. 4. *)

type t = {
  u : float array;  (* row potentials *)
  v : float array;  (* column potentials *)
  p : int array;  (* p.(j) = row assigned to column j, 0 if free *)
}

let create ~rows ~cols =
  {
    u = Array.make (rows + 1) 0.;
    v = Array.make (cols + 1) 0.;
    p = Array.make (cols + 1) 0;
  }

let copy t = { u = Array.copy t.u; v = Array.copy t.v; p = Array.copy t.p }

let augment t ~cost row =
  let u = t.u and v = t.v and p = t.p in
  let m = Array.length v - 1 in
  let way = Array.make (m + 1) 0 in
  let minv = Array.make (m + 1) infinity in
  let used = Array.make (m + 1) false in
  p.(0) <- row + 1;
  let j0 = ref 0 in
  let continue = ref true and found = ref true in
  while !continue do
    used.(!j0) <- true;
    let i0 = p.(!j0) in
    let c = cost (i0 - 1) in
    let delta = ref infinity in
    let j1 = ref 0 in
    for j = 1 to m do
      if not used.(j) then begin
        let cur = c.(j - 1) -. u.(i0) -. v.(j) in
        if cur < minv.(j) then begin
          minv.(j) <- cur;
          way.(j) <- !j0
        end;
        if minv.(j) < !delta then begin
          delta := minv.(j);
          j1 := j
        end
      end
    done;
    if !j1 = 0 then begin
      (* Every unreached column is behind an infinite cost. *)
      continue := false;
      found := false
    end
    else begin
      for j = 0 to m do
        if used.(j) then begin
          u.(p.(j)) <- u.(p.(j)) +. !delta;
          v.(j) <- v.(j) -. !delta
        end
        else minv.(j) <- minv.(j) -. !delta
      done;
      j0 := !j1;
      if p.(!j0) = 0 then continue := false
    end
  done;
  if !found then begin
    (* Augment along the alternating path. *)
    let j0 = ref !j0 in
    while !j0 <> 0 do
      let j1 = way.(!j0) in
      p.(!j0) <- p.(j1);
      j0 := j1
    done
  end;
  !found

let release t row =
  let p = t.p in
  for j = 1 to Array.length p - 1 do
    if p.(j) = row + 1 then p.(j) <- 0
  done

let assignment t =
  let a = Array.make (Array.length t.u - 1) (-1) in
  for j = 1 to Array.length t.p - 1 do
    if t.p.(j) > 0 then a.(t.p.(j) - 1) <- j - 1
  done;
  a

let solve_min cost =
  let n = Array.length cost in
  if n = 0 then ([||], 0.)
  else begin
    let m = Array.length cost.(0) in
    if n > m then invalid_arg "Hungarian.solve_min: more rows than columns";
    Array.iter
      (fun row ->
        if Array.length row <> m then
          invalid_arg "Hungarian.solve_min: ragged cost matrix")
      cost;
    let t = create ~rows:n ~cols:m in
    for i = 0 to n - 1 do
      if not (augment t ~cost:(Array.get cost) i) then
        invalid_arg "Hungarian.solve_min: no finite assignment"
    done;
    let assignment = assignment t in
    let total = ref 0. in
    Array.iteri (fun i j -> total := !total +. cost.(i).(j)) assignment;
    (assignment, !total)
  end

let solve_max weights =
  let n = Array.length weights in
  if n = 0 then ([||], 0.)
  else begin
    let maxw =
      Array.fold_left
        (fun acc row -> Array.fold_left Float.max acc row)
        neg_infinity weights
    in
    let cost = Array.map (Array.map (fun w -> maxw -. w)) weights in
    let assignment, _ = solve_min cost in
    let total = ref 0. in
    Array.iteri (fun i j -> total := !total +. weights.(i).(j)) assignment;
    (assignment, !total)
  end
