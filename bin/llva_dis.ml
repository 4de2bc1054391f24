(* llva-dis: disassemble virtual object code back to textual LLVA, or show
   the native translation for an I-ISA.

     llva_dis input.bc [-o out.ll] [--target x86|sparc] *)

open Cmdliner

let run input output target =
  let m = Tool_common.load_module input in
  match target with
  | None -> (
      let text = Llva.Pretty.module_to_string m in
      match output with
      | Some o ->
          Tool_common.write_file o text;
          Printf.printf "wrote %s\n" o
      | None -> print_string text)
  | Some (("x86" | "sparc") as t) ->
      let (module B) =
        Llee.backend (if t = "x86" then Llee.X86 else Llee.Sparc)
      in
      Hashtbl.iter
        (fun _ cf -> print_string (B.disassemble cf))
        (B.compile_module m).Codegen.Native.funcs
  | Some t ->
      Printf.eprintf "unknown target %s (x86 or sparc)\n" t;
      exit 1

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.bc")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.ll")

let target =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"TARGET" ~doc:"show native code for x86|sparc")

let cmd =
  Cmd.v
    (Cmd.info "llva-dis"
       ~doc:"disassemble virtual object code (or show its native translation)")
    Term.(const run $ input $ output $ target)

let () = exit (Cmd.eval cmd)
