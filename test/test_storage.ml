(* Storage-layer fault semantics: missing vs unreadable entries,
   quarantine, concurrent Domain writers behind [Storage.locked],
   deterministic fault injection, and the bounded retry decorator. *)

module Storage = Llee.Storage

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_tmp_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d" tag (Unix.getpid ()))
  in
  (match Sys.readdir dir with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ());
  dir

let rm_rf_dir dir =
  (match Sys.readdir dir with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_missing_vs_unreadable () =
  let dir = fresh_tmp_dir "llee_unreadable_test" in
  let s = Storage.on_disk ~dir in
  (* a missing entry is an ordinary miss: no exception, nothing counted *)
  check_bool "missing entry reads as None" true (s.Storage.read "absent" = None);
  check_int "missing entry not counted unreadable" 0
    s.Storage.counters.Storage.unreadable;
  (* an entry that exists but cannot be opened as a file (a directory
     squatting on its path) is the transient class, and is counted *)
  s.Storage.write "victim" "payload";
  let file =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | _ -> Alcotest.fail "expected exactly one cache file"
  in
  Sys.remove file;
  Unix.mkdir file 0o755;
  (match s.Storage.read "victim" with
  | exception Storage.Transient _ -> ()
  | Some _ -> Alcotest.fail "unreadable entry served data"
  | None -> Alcotest.fail "unreadable entry conflated with a missing one");
  check_int "unreadable entry counted" 1 s.Storage.counters.Storage.unreadable;
  Unix.rmdir file;
  (* storage still works afterwards *)
  s.Storage.write "victim" "recovered";
  (match s.Storage.read "victim" with
  | Some e -> check_string "recovered" "recovered" e.Storage.data
  | None -> Alcotest.fail "post-recovery read missed");
  rm_rf_dir dir

let test_quarantine_on_disk () =
  let dir = fresh_tmp_dir "llee_quarantine_test" in
  let s = Storage.on_disk ~dir in
  s.Storage.write "rotten" "damaged bytes";
  let live = s.Storage.size () in
  check_bool "entry counted live" true (live > 0);
  s.Storage.quarantine "rotten";
  (* moved aside: never re-read, excluded from the live size, but kept on
     disk for post-mortem inspection *)
  check_bool "quarantined entry never re-read" true
    (s.Storage.read "rotten" = None);
  check_int "quarantined bytes excluded from size" 0 (s.Storage.size ());
  let aside =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".quarantined")
  in
  check_int "one quarantined file kept" 1 (List.length aside);
  (* a repair write lands under the original name without disturbing the
     quarantined copy *)
  s.Storage.write "rotten" "repaired bytes";
  (match s.Storage.read "rotten" with
  | Some e -> check_string "repair landed" "repaired bytes" e.Storage.data
  | None -> Alcotest.fail "repair write lost");
  check_int "quarantined copy untouched" 1
    (Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".quarantined")
    |> List.length);
  (* quarantining a missing entry is a no-op, not an error *)
  s.Storage.quarantine "never-existed";
  rm_rf_dir dir

let test_quarantine_in_memory () =
  let s = Storage.in_memory () in
  s.Storage.write "rotten" "damaged bytes";
  s.Storage.quarantine "rotten";
  check_bool "quarantined entry never re-read" true
    (s.Storage.read "rotten" = None);
  check_int "quarantined bytes excluded from size" 0 (s.Storage.size ());
  s.Storage.write "rotten" "repaired bytes";
  match s.Storage.read "rotten" with
  | Some e -> check_string "repair landed" "repaired bytes" e.Storage.data
  | None -> Alcotest.fail "repair write lost"

(* The forensics API: list, read-back and purge of the moved-aside
   entries, on both concrete backends and through [locked]. *)
let forensics_exercise (s : Storage.t) =
  check_bool "empty cache lists nothing" true (s.Storage.list_quarantined () = []);
  s.Storage.write "alpha" "alpha bytes";
  s.Storage.write "beta" "beta bytes!";
  s.Storage.quarantine "alpha";
  s.Storage.quarantine "beta";
  let qs = s.Storage.list_quarantined () in
  check_int "both quarantined entries listed" 2 (List.length qs);
  check_bool "sizes reported" true
    (List.for_all (fun (_, _, size) -> size = 11) qs);
  check_bool "listing is sorted" true (qs = List.sort compare qs);
  (* read-back by the original name, raw bytes intact *)
  (match s.Storage.read_quarantined "alpha" with
  | Some e -> check_string "raw bytes preserved" "alpha bytes" e.Storage.data
  | None -> Alcotest.fail "quarantined entry unreadable");
  check_bool "absent name reads as None" true
    (s.Storage.read_quarantined "gamma" = None);
  (* a live entry must not shadow or be confused with the aside copy *)
  s.Storage.write "alpha" "repaired!!!";
  (match s.Storage.read_quarantined "alpha" with
  | Some e ->
      check_string "repair does not disturb the aside copy" "alpha bytes"
        e.Storage.data
  | None -> Alcotest.fail "aside copy lost after repair");
  check_int "purge removes them all" 2 (s.Storage.purge_quarantined ());
  check_bool "purged: nothing listed" true (s.Storage.list_quarantined () = []);
  check_bool "purged: nothing readable" true
    (s.Storage.read_quarantined "alpha" = None);
  check_int "second purge is a no-op" 0 (s.Storage.purge_quarantined ());
  (* the live, repaired entry survives the purge *)
  match s.Storage.read "alpha" with
  | Some e -> check_string "live entry survives purge" "repaired!!!" e.Storage.data
  | None -> Alcotest.fail "purge destroyed a live entry"

let test_forensics_in_memory () = forensics_exercise (Storage.in_memory ())

let test_forensics_on_disk () =
  let dir = fresh_tmp_dir "llee_forensics_test" in
  forensics_exercise (Storage.on_disk ~dir);
  rm_rf_dir dir

let test_forensics_locked () =
  forensics_exercise (Storage.locked (Storage.in_memory ()))

let test_forensics_none () =
  let s = Storage.none in
  check_bool "none lists nothing" true (s.Storage.list_quarantined () = []);
  check_bool "none reads nothing" true (s.Storage.read_quarantined "x" = None);
  check_int "none purges nothing" 0 (s.Storage.purge_quarantined ())

let test_locked_concurrent_writers () =
  (* several Domains hammering one [locked] in-memory storage: every
     entry must come back whole (no torn interleavings), no write may be
     lost, and warm reads must be byte-identical to what was written *)
  let s = Storage.locked (Storage.in_memory ()) in
  let writers = 4 and entries = 32 in
  let payload w k =
    (* big enough that a torn interleaving would be detectable *)
    String.concat "-"
      (List.init 64 (fun i -> Printf.sprintf "w%d.e%d.%d" w k i))
  in
  let work w =
    for k = 0 to entries - 1 do
      s.Storage.write (Printf.sprintf "shared.%d" k) (payload w k);
      s.Storage.write (Printf.sprintf "own.%d.%d" w k) (payload w k);
      ignore (s.Storage.read (Printf.sprintf "shared.%d" ((k + w) mod entries)));
      ignore (s.Storage.size ())
    done;
    w
  in
  let ids =
    List.map Domain.join
      (List.init writers (fun w -> Domain.spawn (fun () -> work w)))
  in
  check_bool "all writers finished" true (ids = List.init writers Fun.id);
  (* private entries: byte-identical to what their writer stored *)
  for w = 0 to writers - 1 do
    for k = 0 to entries - 1 do
      match s.Storage.read (Printf.sprintf "own.%d.%d" w k) with
      | Some e ->
          if not (String.equal e.Storage.data (payload w k)) then
            Alcotest.failf "torn or lost entry own.%d.%d" w k
      | None -> Alcotest.failf "lost write own.%d.%d" w k
    done
  done;
  (* contended entries: whole payload from exactly one of the writers *)
  for k = 0 to entries - 1 do
    match s.Storage.read (Printf.sprintf "shared.%d" k) with
    | Some e ->
        let ok =
          List.exists
            (fun w -> String.equal e.Storage.data (payload w k))
            (List.init writers Fun.id)
        in
        if not ok then Alcotest.failf "torn entry shared.%d" k
    | None -> Alcotest.failf "lost entry shared.%d" k
  done

let test_locked_concurrent_disk_writers () =
  (* same discipline on the on-disk backend: atomic tempfile + rename
     under a mutex must never leave torn or lost entries *)
  let dir = fresh_tmp_dir "llee_locked_disk_test" in
  let s = Storage.locked (Storage.on_disk ~dir) in
  let writers = 4 and entries = 8 in
  let payload w k =
    String.concat "-" (List.init 64 (fun i -> Printf.sprintf "w%d.e%d.%d" w k i))
  in
  let work w =
    for k = 0 to entries - 1 do
      s.Storage.write (Printf.sprintf "shared.%d" k) (payload w k);
      ignore (s.Storage.read (Printf.sprintf "shared.%d" ((k + w) mod entries)))
    done;
    w
  in
  List.iter Domain.join
    (List.init writers (fun w -> Domain.spawn (fun () -> ignore (work w))));
  for k = 0 to entries - 1 do
    match s.Storage.read (Printf.sprintf "shared.%d" k) with
    | Some e ->
        let ok =
          List.exists
            (fun w -> String.equal e.Storage.data (payload w k))
            (List.init writers Fun.id)
        in
        if not ok then Alcotest.failf "torn disk entry shared.%d" k
    | None -> Alcotest.failf "lost disk entry shared.%d" k
  done;
  rm_rf_dir dir

let test_faulty_deterministic () =
  (* the same seed over the same operation sequence injects the same
     faults — the property the chaos suite's exact assertions rest on *)
  let run seed =
    let cfg =
      {
        Storage.fault_seed = seed;
        read_corrupt = 0.3;
        write_torn = 0.3;
        write_fail = 0.1;
        transient = 0.2;
      }
    in
    let s, fc = Storage.faulty cfg (Storage.in_memory ()) in
    let payload k = String.concat "" (List.init 40 (fun _ -> string_of_int k)) in
    for k = 0 to 63 do
      (try s.Storage.write (Printf.sprintf "e%d" k) (payload k)
       with Storage.Transient _ | Sys_error _ -> ());
      try ignore (s.Storage.read (Printf.sprintf "e%d" (k / 2)))
      with Storage.Transient _ -> ()
    done;
    ( fc.Storage.corrupt_reads,
      fc.Storage.torn_writes,
      fc.Storage.failed_writes,
      fc.Storage.transient_faults,
      fc.Storage.damaged_serves )
  in
  let a = run 42 and b = run 42 and c = run 43 in
  check_bool "same seed, same faults" true (a = b);
  check_bool "faults actually injected" true
    (let cr, tw, fw, tr, _ = a in
     cr > 0 && tw > 0 && fw > 0 && tr > 0);
  check_bool "different seed, different faults" true (a <> c)

let test_faulty_damage_tracking () =
  (* a torn write marks the name damaged until a whole write replaces it;
     quarantining is always reliable and clears the mark *)
  let cfg =
    { Storage.no_faults with Storage.fault_seed = 7; write_torn = 1.0 }
  in
  let s, fc = Storage.faulty cfg (Storage.in_memory ()) in
  let data = String.make 64 'x' in
  s.Storage.write "entry" data;
  check_int "torn write counted" 1 fc.Storage.torn_writes;
  (match s.Storage.read "entry" with
  | Some e -> check_bool "prefix stored" true (String.length e.Storage.data < 64)
  | None -> Alcotest.fail "torn write lost entirely");
  check_int "damaged serve counted" 1 fc.Storage.damaged_serves;
  check_bool "damage attributed to the name" true
    (Hashtbl.find_opt fc.Storage.damaged_names "entry" = Some 1);
  s.Storage.quarantine "entry";
  check_bool "quarantine is reliable under faults" true
    (s.Storage.read "entry" = None);
  check_int "no damaged serve for a quarantined entry" 1
    fc.Storage.damaged_serves

let test_with_retry () =
  (* transient faults are absorbed by bounded retries; the permanent
     class passes straight through *)
  let calls = ref 0 in
  let base = Storage.in_memory () in
  base.Storage.write "entry" "payload";
  let flaky =
    {
      base with
      Storage.read =
        (fun name ->
          incr calls;
          if !calls <= 2 then Storage.Transient "flaky" |> raise
          else base.Storage.read name);
    }
  in
  let s = Storage.with_retry ~attempts:5 ~backoff:0.0 flaky in
  (match s.Storage.read "entry" with
  | Some e -> check_string "retried through" "payload" e.Storage.data
  | None -> Alcotest.fail "retry lost the entry");
  check_int "two transient faults absorbed" 3 !calls;
  check_int "retries counted" 2 s.Storage.counters.Storage.retried;
  (* exhausted attempts re-raise the transient fault *)
  let always =
    {
      base with
      Storage.read = (fun _ -> raise (Storage.Transient "always"));
    }
  in
  let s2 = Storage.with_retry ~attempts:3 ~backoff:0.0 always in
  (match s2.Storage.read "entry" with
  | exception Storage.Transient _ -> ()
  | _ -> Alcotest.fail "expected Transient after exhausted retries");
  (* permanent failures are not retried *)
  let permanent_calls = ref 0 in
  let permanent =
    {
      base with
      Storage.write =
        (fun _ _ ->
          incr permanent_calls;
          raise (Sys_error "disk on fire"));
    }
  in
  let s3 = Storage.with_retry ~attempts:5 ~backoff:0.0 permanent in
  (match s3.Storage.write "entry" "data" with
  | exception Sys_error _ -> ()
  | () -> Alcotest.fail "expected Sys_error to propagate");
  check_int "permanent failure not retried" 1 !permanent_calls

(* ---- the entry checksum ---- *)

(* CRC-32 bit by bit, with no table: the reference [Llee.Crc32]'s
   slicing-by-8 tables are checked against *)
let crc32_ref s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let test_crc32_known_answers () =
  check_string "123456789" "cbf43926" (Llee.Crc32.hex "123456789");
  check_string "empty" "00000000" (Llee.Crc32.hex "");
  check_int "sub of a framed payload" (Llee.Crc32.string "123456789")
    (Llee.Crc32.sub "xx123456789y" ~off:2 ~len:9)

(* every start offset, and every length from 0 to 17 that fits *)
let prop_crc32_sub =
  QCheck.Test.make ~name:"crc32 sub agrees with the bitwise reference" ~count:200
    QCheck.(string_of_size Gen.(0 -- 40))
    (fun s ->
      Llee.Crc32.string s = crc32_ref s
      && List.for_all
           (fun off ->
             List.for_all
               (fun len ->
                 off + len > String.length s
                 || Llee.Crc32.sub s ~off ~len = crc32_ref (String.sub s off len))
               (List.init 18 Fun.id))
           (List.init (String.length s + 1) Fun.id))

let suite =
  [
    Alcotest.test_case "missing vs unreadable" `Quick test_missing_vs_unreadable;
    Alcotest.test_case "quarantine on disk" `Quick test_quarantine_on_disk;
    Alcotest.test_case "quarantine in memory" `Quick test_quarantine_in_memory;
    Alcotest.test_case "forensics in memory" `Quick test_forensics_in_memory;
    Alcotest.test_case "forensics on disk" `Quick test_forensics_on_disk;
    Alcotest.test_case "forensics through locked" `Quick test_forensics_locked;
    Alcotest.test_case "forensics on none" `Quick test_forensics_none;
    Alcotest.test_case "locked concurrent writers" `Quick
      test_locked_concurrent_writers;
    Alcotest.test_case "locked concurrent disk writers" `Quick
      test_locked_concurrent_disk_writers;
    Alcotest.test_case "faulty storage is deterministic" `Quick
      test_faulty_deterministic;
    Alcotest.test_case "faulty damage tracking" `Quick
      test_faulty_damage_tracking;
    Alcotest.test_case "with_retry" `Quick test_with_retry;
    Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
    QCheck_alcotest.to_alcotest prop_crc32_sub;
  ]
