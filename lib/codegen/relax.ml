(* Fall-through jump removal, shared by both back-ends.

   [relax ~fallthrough ~retarget code] deletes every instruction for
   which [fallthrough k i] holds (an unconditional jump at [k] to [k+1])
   and renumbers every branch target through [retarget]. Removing one
   jump can make another fall through (a jump over only removed jumps),
   so sweeps repeat until none is left. Each sweep is linear: targets
   move down by the number of jumps removed before them, a prefix sum.

   The result is the one of removing a single jump per rescan, as this
   used to do: a jump falls through once everything between it and its
   target is removed, which further removals never undo, so both reach
   the same least fixpoint and renumber alike. Branches are rebuilt by
   [retarget] in every sweep that removes something and other
   instructions are kept, so the output also shares values the same
   way. *)
let relax ~fallthrough ~retarget (code : 'i array) : 'i array =
  let rec sweep code =
    let n = Array.length code in
    (* before.(l): jumps removed below index l *)
    let before = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      before.(k + 1) <- (before.(k) + if fallthrough k code.(k) then 1 else 0)
    done;
    let removed = before.(n) in
    if removed = 0 then code
    else begin
      let remap l =
        if l < 0 then l else if l > n then l - removed else l - before.(l)
      in
      let out = Array.make (n - removed) code.(0) in
      for k = 0 to n - 1 do
        if before.(k + 1) = before.(k) then
          out.(k - before.(k)) <- retarget remap code.(k)
      done;
      sweep out
    end
  in
  sweep code
