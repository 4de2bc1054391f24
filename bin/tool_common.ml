(* Shared helpers for the command-line tools. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let is_object_code data =
  String.length data >= 4 && String.sub data 0 4 = "LLVA"

(* Load a module from either textual assembly (.ll) or virtual object
   code (.bc), sniffing the magic. *)
let load_module path =
  let data = read_file path in
  if is_object_code data then Llva.Decode.decode data
  else Llva.Resolve.parse_module ~name:(Filename.remove_extension (Filename.basename path)) data

(* The on-disk LLEE cache in [dir], made if missing. A directory that
   cannot be made or opened ends the tool with exit code 2. *)
let open_cache dir =
  try Llee.Storage.on_disk ~dir
  with Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot open cache directory %s: %s\n" dir (Unix.error_message e);
    exit 2

let check_verify m =
  match Llva.Verify.verify_module m with
  | [] -> ()
  | errs ->
      List.iter (fun e -> Printf.eprintf "verify: %s\n" e) errs;
      exit 1

(* Run llva-lint over [m], printing text diagnostics to [channel].
   Returns true when the findings should fail the invocation: any
   error-severity diagnostic, or any warning when [werror] is set. *)
let run_lint ?(werror = false) ?checks ~channel m =
  let diags = Check.Lint.run ?checks m in
  List.iter
    (fun d -> output_string channel (Check.Diag.to_text d ^ "\n"))
    diags;
  Check.Diag.count_severity Check.Diag.Error diags > 0
  || (werror && Check.Diag.count_severity Check.Diag.Warning diags > 0)

(* Shared handler for a pass pipeline that left the module invalid:
   report the verifier's messages on stderr and exit non-zero. *)
let pipeline_broke name errs =
  Printf.eprintf "pass %s left the module invalid:\n" name;
  List.iter (fun e -> Printf.eprintf "verify: %s\n" e) errs;
  exit 1
