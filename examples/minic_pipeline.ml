(* The full compilation pipeline on a realistic program: C source ->
   LLVA -> link-time optimization -> virtual object code -> native
   translation for both I-ISAs, with the intermediate artifacts printed
   at each stage (the lifecycle from paper §4.2).

     dune exec examples/minic_pipeline.exe *)

let c_source =
  {|
/* a tiny word-frequency counter over deterministic "text" */
enum { WORDS = 300, BUCKETS = 64 };

unsigned seed = 42u;
unsigned rnd() { seed = seed * 1103515245u + 12345u; return (seed >> 16) & 32767u; }

typedef struct Entry {
  int word_id;
  int count;
  struct Entry *next;
} Entry;

Entry *buckets[BUCKETS];

Entry *find_or_add(int word_id) {
  unsigned h = (unsigned)word_id % (unsigned)BUCKETS;
  Entry *e = buckets[h];
  while (e) {
    if (e->word_id == word_id) return e;
    e = e->next;
  }
  e = (Entry *) malloc(sizeof(Entry));
  e->word_id = word_id;
  e->count = 0;
  e->next = buckets[h];
  buckets[h] = e;
  return e;
}

int main() {
  int i, distinct = 0, maxcount = 0;
  for (i = 0; i < BUCKETS; i++) buckets[i] = 0;
  for (i = 0; i < WORDS; i++) {
    int w = (int)(rnd() % 97u);
    Entry *e = find_or_add(w);
    e->count++;
  }
  for (i = 0; i < BUCKETS; i++) {
    Entry *e = buckets[i];
    while (e) {
      distinct++;
      if (e->count > maxcount) maxcount = e->count;
      e = e->next;
    }
  }
  print_str("distinct=");
  print_int(distinct);
  print_str(" max=");
  print_int(maxcount);
  print_nl();
  return 0;
}
|}

let () =
  print_endline "=== stage 1: C -> LLVA (front-end) ===";
  let m = Minic.Mcodegen.compile_and_verify ~name:"wordfreq" c_source in
  Printf.printf "front-end emitted %d LLVA instructions in %d functions\n"
    (Llva.Ir.module_instr_count m)
    (List.length (List.filter (fun f -> not (Llva.Ir.is_declaration f)) m.Llva.Ir.funcs));

  print_endline "\n=== stage 2: link-time optimization on the V-ISA ===";
  let changes = Transform.Passmgr.optimize ~level:2 ~verify:true m in
  Printf.printf "optimizer: %d changes; %d instructions remain\n" changes
    (Llva.Ir.module_instr_count m);
  print_endline "\nfind_or_add after optimization:";
  (match Llva.Ir.find_func m "find_or_add" with
  | Some f -> print_string (Llva.Pretty.func_to_string f)
  | None -> print_endline "(inlined away)");

  print_endline "=== stage 3: virtual object code ===";
  let bytes = Llva.Encode.encode m in
  Printf.printf "%d bytes (%.1f bytes/instruction)\n" (String.length bytes)
    (float_of_int (String.length bytes)
    /. float_of_int (Llva.Ir.module_instr_count m));

  print_endline "\n=== stage 4: translation to both I-ISAs ===";
  let shipped = Llva.Decode.decode bytes in
  let x86 = X86lite.Compile.compile_module shipped in
  let sparc = Sparclite.Compile.compile_module (Llva.Decode.decode bytes) in
  Printf.printf "x86-lite  : %4d instructions (%.2fx), %5d bytes\n"
    (X86lite.Compile.module_instr_count x86)
    (float_of_int (X86lite.Compile.module_instr_count x86)
    /. float_of_int (Llva.Ir.module_instr_count shipped))
    (X86lite.Compile.module_code_size x86);
  Printf.printf "sparc-lite: %4d instructions (%.2fx), %5d bytes\n"
    (Sparclite.Compile.module_instr_count sparc)
    (float_of_int (Sparclite.Compile.module_instr_count sparc)
    /. float_of_int (Llva.Ir.module_instr_count shipped))
    (Sparclite.Compile.module_code_size sparc);

  (* a peek at the generated code *)
  (match Hashtbl.find_opt x86.Codegen.Native.funcs "find_or_add" with
  | Some cf ->
      print_endline "\nfind_or_add, x86-lite (first 12 instructions):";
      let dis = X86lite.Compile.disassemble cf in
      String.split_on_char '\n' dis
      |> List.filteri (fun k _ -> k < 13)
      |> List.iter print_endline
  | None -> ());

  print_endline "\n=== stage 5: execution ===";
  let st = Interp.create shipped in
  let icode = Interp.run_main st in
  Printf.printf "interpreter: exit=%d %s" icode (Interp.output st);
  let xcode, xst = Codegen.Machine.run_main X86lite.Sim.machine x86 in
  Printf.printf "x86-lite   : exit=%d %s" xcode (Codegen.Machine.output xst);
  let scode, sst = Codegen.Machine.run_main Sparclite.Sim.machine sparc in
  Printf.printf "sparc-lite : exit=%d %s" scode (Codegen.Machine.output sst);
  assert (icode = xcode && xcode = scode);
  print_endline "all three engines agree."
