(** Hungarian algorithm (Kuhn–Munkres, shortest-augmenting-path variant)
    for the assignment problem.

    This is the substrate for generating the paper's possible mappings: the
    best one-to-one matching between target and source attributes by total
    similarity score, ranked into the k best by {!Murty}.

    One routine does the work.  {!augment} assigns one free row by a single
    shortest augmenting path over reduced costs (Dijkstra on a dense
    matrix, O(rows · cols)), keeping the row and column potentials
    feasible.  {!solve_min} is one call per row from zero potentials,
    O(n² · m) in all; {!Murty} solves its root that way and then each
    ranked subproblem with one call from its parent's potentials. *)

(** Row and column potentials (dual variables) and a partial assignment
    of columns to rows. *)
type t

(** [create ~rows ~cols] zero potentials, every row and column free. *)
val create : rows:int -> cols:int -> t

val copy : t -> t

(** [augment t ~cost i] assigns the free row [i] by one shortest
    augmenting path, moving other rows along the path to new columns.
    [cost r] is row [r]'s cost vector (length [cols]; [infinity] is "no
    edge"); it is read once per row reached and only until the next call
    of [cost].

    Requires feasible potentials: [c(r, j) - u(r) - v(j) >= 0] on every
    finite edge of a row the path can reach, with equality on the edges
    of assigned rows.  Raising costs keeps them feasible.  The result is a
    minimum-cost assignment of the assigned rows whenever every column is
    assigned afterwards (a square problem) or every free column still has
    potential 0 (as when every row is added from {!create}).

    Returns [false] when no finite augmenting path exists; [t] is then
    unusable. *)
val augment : t -> cost:(int -> float array) -> int -> bool

(** [release t i] frees row [i]'s column; the potentials stay as they
    were. *)
val release : t -> int -> unit

(** [assignment t] the column of each row, [-1] for a free row. *)
val assignment : t -> int array

(** [solve_min cost] minimises total cost over perfect assignments of rows
    to columns.  [cost] must be rectangular with [rows ≤ cols]; every row is
    assigned a distinct column.  Returns [(assignment, total)] where
    [assignment.(i)] is the column of row [i]. *)
val solve_min : float array array -> int array * float

(** [solve_max weights] maximises total weight.  Same shape requirements as
    {!solve_min}. *)
val solve_max : float array array -> int array * float
