(** Seeded, deterministic, always-terminating TinyC program generator
    for differential fuzzing of the sanitizer pipeline.

    Programs are weighted toward the constructs that stress Usher's
    precision machinery: address-taken locals and aliasing stores,
    function pointers through [int*] casts, partial struct
    initialization (stack and heap), partially-initialized arrays with
    masked indexing, and loops carrying possibly-undefined values
    across iterations.

    Guarantees:
    - the same [seed] always produces the structurally identical AST;
    - every program terminates (literal-bounded counted loops only,
      acyclic call graph);
    - every program lowers, analyzes and interprets without runtime
      traps: no zero divisors, no out-of-range shifts, no
      out-of-bounds indexing, no wild pointers. Reads of uninitialized
      *scalars* are deliberate — they are the ground truth the
      differential oracle cross-checks;
    - every program round-trips through the pretty-printer and parser
      ([Tinyc.Parser.parse_program (Tinyc.Pretty.program_to_string p)]
      equals [p]). *)

val program : ?size:int -> seed:int -> unit -> Tinyc.Ast.program
(** [program ~seed ()] generates a complete TinyC program (globals,
    struct defs, ["fz"]-prefixed helper functions, and a [main] that
    calls every helper and prints the accumulated result). [size]
    scales the number of helper functions (default 3). *)

val source : ?size:int -> seed:int -> unit -> string
(** [source ~seed ()] is [program ~seed ()] pretty-printed. *)

val campaign_seed : seed:int -> int -> int
(** [campaign_seed ~seed i] derives the per-program seed for index [i]
    of a fuzzing campaign rooted at [seed]. Depends only on [(seed, i)],
    never on generation order. *)
