(* The OS-independent storage API of paper §4.1: "routines to create,
   delete, and query the size of an offline cache, read or write a vector
   of N bytes tagged by a unique string name from/to a cache, and check a
   timestamp". The OS may implement it (in-memory or on-disk here); when
   absent ([none]) everything still works, with online translation on
   every launch — exactly the DAISY/Crusoe situation the paper improves
   on.

   Failure semantics: reads distinguish "entry missing" ([None]) from
   "entry present but unreadable" ([Transient]); the transient class is
   the only one worth retrying ([with_retry]). Damaged entries detected
   by the execution manager are moved aside with [quarantine] — renamed,
   never re-read — so a repair write can land under the original name.
   [faulty] wraps any storage with deterministic injected faults; it is
   the substrate of the chaos test suite. *)

(* A storage operation failed in a way a retry may fix: an existing entry
   could not be read, an injected transient fault, a racing writer. Never
   raised for a missing entry. *)
exception Transient of string

(* Per-storage health counters, shared by every decorator wrapped around
   the same underlying store. *)
type counters = {
  mutable unreadable : int; (* existing entries that failed to read *)
  mutable retried : int; (* transient faults absorbed by [with_retry] *)
}

let fresh_counters () = { unreadable = 0; retried = 0 }

type entry = { data : string; timestamp : float }

type t = {
  read : string -> entry option;
  write : string -> string -> unit;
  delete : string -> unit;
  quarantine : string -> unit; (* move a damaged entry aside, never re-read *)
  size : unit -> int; (* total live bytes cached (quarantined excluded) *)
  (* quarantine forensics: the execution manager never re-reads a
     quarantined entry, but a human (llva-run --cache-doctor) may *)
  list_quarantined : unit -> (string * float * int) list;
      (* (name as stored, timestamp, size in bytes), deterministic order *)
  read_quarantined : string -> entry option;
      (* by the ORIGINAL cache name the entry was quarantined under *)
  open_quarantined : string -> entry option;
      (* by the STORED name [list_quarantined] reports (the sanitized
         on-disk file name) — lets the doctor classify the damage of an
         entry whose original cache name it cannot reconstruct *)
  purge_quarantined : unit -> int; (* delete all; returns how many *)
  available : bool;
  counters : counters;
}

(* No OS support: every read misses, writes are dropped. *)
let none =
  {
    read = (fun _ -> None);
    write = (fun _ _ -> ());
    delete = (fun _ -> ());
    quarantine = (fun _ -> ());
    size = (fun () -> 0);
    list_quarantined = (fun () -> []);
    read_quarantined = (fun _ -> None);
    open_quarantined = (fun _ -> None);
    purge_quarantined = (fun () -> 0);
    available = false;
    counters = fresh_counters ();
  }

(* Quarantined entries keep living under a reserved suffix so they can be
   inspected post-mortem; '#' is outside the LLVA identifier grammar, so
   no legitimate cache name can collide with a quarantined one. *)
let quarantine_suffix = "#quarantined#"

(* An in-memory cache (models OS support with a RAM-backed store). The
   clock is a logical counter so behaviour is deterministic. *)
let in_memory () =
  let table : (string, entry) Hashtbl.t = Hashtbl.create 32 in
  let clock = ref 0.0 in
  {
    read = (fun name -> Hashtbl.find_opt table name);
    write =
      (fun name data ->
        clock := !clock +. 1.0;
        Hashtbl.replace table name { data; timestamp = !clock });
    delete = (fun name -> Hashtbl.remove table name);
    quarantine =
      (fun name ->
        match Hashtbl.find_opt table name with
        | Some e ->
            Hashtbl.remove table name;
            Hashtbl.replace table (name ^ quarantine_suffix) e
        | None -> ());
    size =
      (fun () ->
        Hashtbl.fold
          (fun n e acc ->
            if Filename.check_suffix n quarantine_suffix then acc
            else acc + String.length e.data)
          table 0);
    list_quarantined =
      (fun () ->
        Hashtbl.fold
          (fun n e acc ->
            if Filename.check_suffix n quarantine_suffix then
              ( Filename.chop_suffix n quarantine_suffix,
                e.timestamp,
                String.length e.data )
              :: acc
            else acc)
          table []
        |> List.sort compare);
    read_quarantined =
      (fun name -> Hashtbl.find_opt table (name ^ quarantine_suffix));
    open_quarantined =
      (* in memory the stored name IS the original cache name *)
      (fun name -> Hashtbl.find_opt table (name ^ quarantine_suffix));
    purge_quarantined =
      (fun () ->
        let victims =
          Hashtbl.fold
            (fun n _ acc ->
              if Filename.check_suffix n quarantine_suffix then n :: acc
              else acc)
            table []
        in
        List.iter (Hashtbl.remove table) victims;
        List.length victims);
    available = true;
    counters = fresh_counters ();
  }

(* An on-disk cache rooted at [dir]; names are sanitized to file names.
   Writes are atomic (temp file + rename) so a crash or a concurrent
   launch can never leave a torn entry behind. Reads distinguish a
   missing entry (a miss, [None]) from an existing-but-unreadable one
   (counted, raised as [Transient] so [with_retry] can have another go —
   the file may be mid-replacement by a concurrent writer). *)
let on_disk ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let counters = fresh_counters () in
  let path name =
    (* Sanitization must be injective: mapping every unsafe character to
       '_' would send distinct names (a cache for "a$b" and one for
       "a_b") to the same file, silently serving one entry's data for the
       other. The readable prefix keeps cache directories inspectable;
       the digest of the raw name keeps the mapping collision-free. *)
    let safe =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
          | _ -> '_')
        name
    in
    Filename.concat dir
      (Printf.sprintf "%s-%s" safe (Digest.to_hex (Digest.string name)))
  in
  let unreadable p msg =
    counters.unreadable <- counters.unreadable + 1;
    raise (Transient (Printf.sprintf "unreadable cache entry %s: %s" p msg))
  in
  (* best-effort whole-file read for quarantine forensics: never raises,
     never counts — a vanished or unreadable quarantined file is [None] *)
  let read_file p : entry option =
    match open_in_bin p with
    | exception Sys_error _ -> None
    | ic -> (
        match
          let len = in_channel_length ic in
          let data = really_input_string ic len in
          { data; timestamp = (Unix.stat p).Unix.st_mtime }
        with
        | entry ->
            close_in_noerr ic;
            Some entry
        | exception (Sys_error _ | End_of_file | Unix.Unix_error _) ->
            close_in_noerr ic;
            None)
  in
  (* Chaos knob: with LLVA_CHAOS_SLOW_WRITE_US set, writes abandon the
     atomic tmp+rename path and stream into the FINAL file in 512-byte
     chunks with a flush and a pause between them. A kill -9 landing
     mid-write then leaves a genuinely torn entry on disk — the state the
     atomic path makes unreachable, and exactly what the crash-recovery
     chaos scenario needs to provoke for real. Test-only; unset (the
     default) keeps every write atomic. *)
  let slow_write_us =
    match Sys.getenv_opt "LLVA_CHAOS_SLOW_WRITE_US" with
    | None -> 0
    | Some s -> ( try max 0 (int_of_string (String.trim s)) with Failure _ -> 0)
  in
  {
    read =
      (fun name ->
        let p = path name in
        match open_in_bin p with
        | exception Sys_error msg ->
            (* missing vs unreadable: only the latter is worth a retry *)
            if Sys.file_exists p then unreadable p msg else None
        | ic -> (
            match
              let len = in_channel_length ic in
              let data = really_input_string ic len in
              let timestamp = (Unix.stat p).Unix.st_mtime in
              { data; timestamp }
            with
            | entry ->
                close_in_noerr ic;
                Some entry
            | exception (Sys_error _ | End_of_file | Unix.Unix_error _) ->
                close_in_noerr ic;
                (* opened but failed mid-read: the entry exists (or did an
                   instant ago), so this is the transient class *)
                if Sys.file_exists p then unreadable p "failed mid-read"
                else None));
    write =
      (fun name data ->
        let p = path name in
        if slow_write_us > 0 then (
          try
            let oc = open_out_bin p in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                let n = String.length data in
                let k = ref 0 in
                while !k < n do
                  let len = min 512 (n - !k) in
                  output_substring oc data !k len;
                  flush oc;
                  Unix.sleepf (float_of_int slow_write_us *. 1e-6);
                  k := !k + len
                done)
          with Sys_error _ | Unix.Unix_error _ -> ())
        else
          let tmp = Printf.sprintf "%s.%d.tmp" p (Unix.getpid ()) in
          try
            let oc = open_out_bin tmp in
            (* a failing [output_string]/[close_out] (full disk, quota, I/O
               error) must still close the fd — [close_out] does not close
               on a flush failure — and must leave no tmp file behind *)
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                output_string oc data;
                close_out oc);
            Sys.rename tmp p
          with Sys_error _ | Unix.Unix_error _ ->
            (try Sys.remove tmp with Sys_error _ -> ()));
    delete =
      (fun name -> try Sys.remove (path name) with Sys_error _ -> ());
    quarantine =
      (fun name ->
        let p = path name in
        try Sys.rename p (p ^ ".quarantined") with Sys_error _ -> ());
    size =
      (fun () ->
        match Sys.readdir dir with
        | exception Sys_error _ -> 0
        | files ->
            Array.fold_left
              (fun acc f ->
                if
                  Filename.check_suffix f ".tmp"
                  || Filename.check_suffix f ".quarantined"
                then acc
                else
                  match Unix.stat (Filename.concat dir f) with
                  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
                  | _ -> acc
                  | exception (Unix.Unix_error _ | Sys_error _) -> acc)
              0 files);
    list_quarantined =
      (fun () ->
        match Sys.readdir dir with
        | exception Sys_error _ -> []
        | files ->
            Array.to_list files
            |> List.filter (fun f -> Filename.check_suffix f ".quarantined")
            |> List.filter_map (fun f ->
                   match Unix.stat (Filename.concat dir f) with
                   | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                       (* the sanitized file name, quarantine suffix
                          stripped — the readable prefix identifies the
                          module/function/target *)
                       Some
                         (Filename.chop_suffix f ".quarantined", st_mtime,
                          st_size)
                   | _ -> None
                   | exception (Unix.Unix_error _ | Sys_error _) -> None)
            |> List.sort compare);
    read_quarantined = (fun name -> read_file (path name ^ ".quarantined"));
    open_quarantined =
      (fun stored ->
        (* [stored] is a file name [list_quarantined] produced itself
           (suffix stripped); refuse anything that could escape [dir] *)
        if String.equal stored (Filename.basename stored) then
          read_file (Filename.concat dir (stored ^ ".quarantined"))
        else None);
    purge_quarantined =
      (fun () ->
        match Sys.readdir dir with
        | exception Sys_error _ -> 0
        | files ->
            Array.fold_left
              (fun acc f ->
                if Filename.check_suffix f ".quarantined" then
                  match Sys.remove (Filename.concat dir f) with
                  | () -> acc + 1
                  | exception Sys_error _ -> acc
                else acc)
              0 files);
    available = true;
    counters;
  }

(* Serialize every operation on [s] behind a mutex, making it safe to
   share one storage between domains. *)
let locked s =
  let m = Mutex.create () in
  let guard f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  {
    s with
    read = (fun name -> guard (fun () -> s.read name));
    write = (fun name data -> guard (fun () -> s.write name data));
    delete = (fun name -> guard (fun () -> s.delete name));
    quarantine = (fun name -> guard (fun () -> s.quarantine name));
    size = (fun () -> guard (fun () -> s.size ()));
    list_quarantined = (fun () -> guard (fun () -> s.list_quarantined ()));
    read_quarantined = (fun name -> guard (fun () -> s.read_quarantined name));
    open_quarantined = (fun name -> guard (fun () -> s.open_quarantined name));
    purge_quarantined = (fun () -> guard (fun () -> s.purge_quarantined ()));
  }

(* ---------- fault injection ---------- *)

(* Deterministic injected storage faults (the chaos-suite substrate).
   Probabilities are per operation; the PRNG stream is fixed by
   [fault_seed], so a given (seed, operation sequence) pair always
   injects the same faults. *)
type fault_config = {
  fault_seed : int;
  read_corrupt : float; (* P(a successful read serves a damaged payload) *)
  write_fail : float; (* P(a write raises a permanent Sys_error) *)
  write_torn : float; (* P(a write stores only a prefix of the data) *)
  transient : float; (* P(an op raises [Transient]; a retry redraws) *)
}

let no_faults =
  {
    fault_seed = 0;
    read_corrupt = 0.0;
    write_fail = 0.0;
    write_torn = 0.0;
    transient = 0.0;
  }

type fault_counters = {
  mutable corrupt_reads : int; (* reads corrupted in flight *)
  mutable torn_writes : int; (* writes stored truncated *)
  mutable failed_writes : int; (* writes refused with Sys_error *)
  mutable transient_faults : int; (* ops that raised [Transient] *)
  mutable damaged_serves : int; (* reads that returned damaged bytes,
                                   whether corrupted in flight or torn at
                                   rest — each one is a fault the reader
                                   must detect and contain *)
  damaged_names : (string, int) Hashtbl.t; (* damaged serves per name *)
}

(* [faulty config s] wraps [s] so that reads may serve corrupted
   payloads, writes may fail or store torn prefixes, and any operation
   may raise a transient error, all driven by a deterministic PRNG.
   Corruption flips the final byte, and torn writes keep at least 15
   bytes of prefix, so a framed LLEE entry is always caught by its
   payload checksum (never reduced to a bad-magic read) — which is what
   lets the chaos suite assert exact quarantine counts. Returns the
   wrapped storage and live fault counters. *)
let faulty config s =
  let rng = Random.State.make [| config.fault_seed |] in
  let fc =
    {
      corrupt_reads = 0;
      torn_writes = 0;
      failed_writes = 0;
      transient_faults = 0;
      damaged_serves = 0;
      damaged_names = Hashtbl.create 16;
    }
  in
  (* names whose stored value is currently a torn prefix *)
  let torn : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let draw p = p > 0.0 && Random.State.float rng 1.0 < p in
  let transient op =
    if draw config.transient then begin
      fc.transient_faults <- fc.transient_faults + 1;
      raise (Transient ("injected: transient " ^ op ^ " fault"))
    end
  in
  let serve_damaged name =
    fc.damaged_serves <- fc.damaged_serves + 1;
    Hashtbl.replace fc.damaged_names name
      (1 + Option.value ~default:0 (Hashtbl.find_opt fc.damaged_names name))
  in
  let storage =
    {
      s with
      read =
        (fun name ->
          transient "read";
          match s.read name with
          | None -> None
          | Some e when draw config.read_corrupt && String.length e.data > 0
            ->
              fc.corrupt_reads <- fc.corrupt_reads + 1;
              serve_damaged name;
              let b = Bytes.of_string e.data in
              let k = Bytes.length b - 1 in
              Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 0xFF));
              Some { e with data = Bytes.to_string b }
          | Some e ->
              if Hashtbl.mem torn name then serve_damaged name;
              Some e);
      write =
        (fun name data ->
          transient "write";
          if draw config.write_fail then begin
            fc.failed_writes <- fc.failed_writes + 1;
            raise (Sys_error "injected: write failure")
          end;
          if draw config.write_torn && String.length data > 16 then begin
            fc.torn_writes <- fc.torn_writes + 1;
            s.write name (String.sub data 0 (max 15 (String.length data / 2)));
            Hashtbl.replace torn name ()
          end
          else begin
            s.write name data;
            Hashtbl.remove torn name
          end);
      delete =
        (fun name ->
          transient "delete";
          s.delete name;
          Hashtbl.remove torn name);
      quarantine =
        (* quarantining is the recovery path — keep it reliable *)
        (fun name ->
          s.quarantine name;
          Hashtbl.remove torn name);
    }
  in
  (storage, fc)

(* ---------- bounded retry ---------- *)

(* Retry reads/writes/deletes that raise [Transient], with bounded
   exponential backoff ([backoff], 2*[backoff], 4*[backoff], ...). The
   permanent class (plain [Sys_error], missing entries) is never retried.
   After [attempts] tries the [Transient] propagates — the execution
   manager above contains it as a miss / dropped write. *)
let with_retry ?(attempts = 5) ?(backoff = 0.0005) s =
  let retry op =
    let rec go k delay =
      match op () with
      | v -> v
      | exception Transient _ when k < attempts - 1 ->
          s.counters.retried <- s.counters.retried + 1;
          if delay > 0.0 then Unix.sleepf delay;
          go (k + 1) (delay *. 2.0)
    in
    go 0 backoff
  in
  {
    s with
    read = (fun name -> retry (fun () -> s.read name));
    write = (fun name data -> retry (fun () -> s.write name data));
    delete = (fun name -> retry (fun () -> s.delete name));
  }
