(** Hand-rolled lexer for TinyC. Supports // and /* */ comments. *)

(** Tokenize a whole source string (the last element is EOF).
    @raise Diag.Error with phase [Diag.Lex] and line/col on bad input. *)
val tokenize : string -> Token.spanned array
