(* lib/serve: the JSON value type, parser and one-line emitter. *)

(* ---- Serve.Json ---- *)

let json_roundtrip () =
  let open Serve.Json in
  let v =
    Obj
      [
        ("id", Str "r\"1\"\nx");
        ("n", Num 42.);
        ("f", Num 1.5);
        ("b", Bool true);
        ("nul", Null);
        ("xs", Arr [ Num 1.; Str "two"; Bool false ]);
        ("empty", Obj []);
      ]
  in
  let line = to_line v in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match parse line with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')

let json_escapes () =
  let open Serve.Json in
  (match parse {|{"s":"aA\n\t\\\"z"}|} with
  | Ok (Obj [ ("s", Str s) ]) ->
    Alcotest.(check string) "escapes" "aA\n\t\\\"z" s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "parse: %s" e);
  match parse {|{"s":"é"}|} with
  | Ok (Obj [ ("s", Str s) ]) ->
    Alcotest.(check string) "utf8 from \\u" "\xc3\xa9" s
  | _ -> Alcotest.fail "utf8 escape"

let json_rejects () =
  let open Serve.Json in
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing"; "" ]

let suites =
  [
    ( "serve.json",
      [
        Alcotest.test_case "roundtrip" `Quick json_roundtrip;
        Alcotest.test_case "escapes" `Quick json_escapes;
        Alcotest.test_case "rejects malformed" `Quick json_rejects;
      ] );
  ]
