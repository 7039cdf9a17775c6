(* Model-based test of the variable-length-key trie against
   [Set.Make (String)].  Keys are strings of one to three letters over a
   two- or three-letter alphabet, so a program keeps a handful of keys
   that share long encoded prefixes: one key is often a prefix of
   another ("a", "ab", "aba"), and replace meets every shape of
   Figure 6 — the general case and special cases 1-4 — within a few
   operations.  After each program the structural audit, the contents
   and a frozen view must all agree with the model. *)

module V = Core.Patricia_vlk
module SS = Set.Make (String)

type op =
  | Insert of string
  | Delete of string
  | Member of string
  | Replace of string * string

let show = function
  | Insert k -> Printf.sprintf "insert %S" k
  | Delete k -> Printf.sprintf "delete %S" k
  | Member k -> Printf.sprintf "member %S" k
  | Replace (a, b) -> Printf.sprintf "replace %S -> %S" a b

let gen_program letters =
  let open QCheck2.Gen in
  let key = string_size ~gen:(oneofl letters) (int_range 1 3) in
  list_size (int_range 1 80)
    (frequency
       [
         (3, map (fun k -> Insert k) key);
         (2, map (fun k -> Delete k) key);
         (1, map (fun k -> Member k) key);
         (4, map2 (fun a b -> Replace (a, b)) key key);
       ])

(* Run [program] on a fresh trie and on the model; [Error] names the
   first disagreement. *)
let run program =
  let t = V.create () in
  let model = ref SS.empty in
  let step op =
    let expect, got =
      match op with
      | Insert k ->
          let e = not (SS.mem k !model) in
          model := SS.add k !model;
          (e, V.insert t k)
      | Delete k ->
          let e = SS.mem k !model in
          model := SS.remove k !model;
          (e, V.delete t k)
      | Member k -> (SS.mem k !model, V.member t k)
      | Replace (a, b) ->
          let e = SS.mem a !model && not (SS.mem b !model) in
          if e then model := SS.add b (SS.remove a !model);
          (e, V.replace t ~remove:a ~add:b)
    in
    if expect = got then Ok ()
    else Error (Printf.sprintf "%s returned %b, model says %b" (show op) got expect)
  in
  let same_set what keys =
    if List.length keys = SS.cardinal !model && SS.equal (SS.of_list keys) !model
    then Ok ()
    else
      Error
        (Printf.sprintf "%s holds [%s], model [%s]" what (String.concat "; " keys)
           (String.concat "; " (SS.elements !model)))
  in
  let ( let* ) = Result.bind in
  let* () =
    List.fold_left (fun acc op -> Result.bind acc (fun () -> step op)) (Ok ())
      program
  in
  let* () = V.check_invariants t in
  let* () = same_set "trie" (V.to_list t) in
  let* () = same_set "frozen view" (V.View.to_list (V.snapshot t)) in
  (* After a snapshot, an update copies the nodes it descends through
     into the new generation; the audit must hold after that too. *)
  ignore (V.insert t "a");
  V.check_invariants t

let prop name letters =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name
       ~print:(fun p -> String.concat "\n" (List.map show p))
       (gen_program letters)
       (fun program ->
         match run program with
         | Ok () -> true
         | Error e -> QCheck2.Test.fail_reportf "%s" e))

let () =
  Alcotest.run "vlk_model"
    [
      ( "model",
        [
          prop "two-letter keys match Set" [ 'a'; 'b' ];
          prop "three-letter keys match Set" [ 'a'; 'b'; 'c' ];
        ] );
    ]
