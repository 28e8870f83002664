(* User-space library tests: serde combinators, the allocator, string
   routines and futex-based synchronization primitives under adversarial
   thread schedules. *)

module K = Bi_kernel.Kernel
module U = Bi_kernel.Usys
module Serde = Bi_ulib.Serde
module Ualloc = Bi_ulib.Ualloc
module Ustring = Bi_ulib.Ustring
module Umutex = Bi_ulib.Umutex
module Usem = Bi_ulib.Usem
module Ucond = Bi_ulib.Ucond

let check = Alcotest.check

let qtest name count gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* The kernel reports a thread killed by an exception on its serial
   console and carries on, so a check that fails inside [body] (or any
   thread it starts) is caught here, after the run. *)
let run_one body =
  let k = K.create () in
  K.register_program k "main" (fun s _ -> body s);
  (match K.spawn k ~prog:"main" ~arg:"" with
  | Ok _ -> K.run k
  | Error _ -> Alcotest.fail "spawn failed");
  let out = K.serial_output k in
  if
    List.exists
      (String.starts_with ~prefix:"[kernel] thread")
      (String.split_on_char '\n' out)
  then Alcotest.fail out;
  k

(* ------------------------------------------------------------------ *)
(* Serde *)

let roundtrip codec v = Serde.decode codec (Serde.encode codec v) = Some v

let prop_serde_varint =
  qtest "varint roundtrip" 300 QCheck2.Gen.(int_bound 1_000_000_000) (fun v ->
      roundtrip Serde.varint v)

let prop_serde_u64 =
  qtest "u64 roundtrip" 300 QCheck2.Gen.(map Int64.of_int int) (fun v ->
      roundtrip Serde.u64 v)

let prop_serde_string =
  qtest "string roundtrip" 300
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun v -> roundtrip Serde.string v)

let prop_serde_composite =
  qtest "composite roundtrip" 200
    QCheck2.Gen.(
      list_size (int_range 0 20)
        (pair (string_size ~gen:printable (int_range 0 12)) (option bool)))
    (fun v -> roundtrip Serde.(list (pair string (option bool))) v)

let test_serde_varint_compact () =
  check Alcotest.int "small ints take one byte" 1
    (Bytes.length (Serde.encode Serde.varint 100));
  check Alcotest.int "two bytes past 127" 2
    (Bytes.length (Serde.encode Serde.varint 200))

let test_serde_rejects_trailing () =
  let b = Bytes.cat (Serde.encode Serde.u16 7) (Bytes.make 1 'x') in
  check Alcotest.bool "trailing rejected" true (Serde.decode Serde.u16 b = None)

let test_serde_rejects_truncated () =
  let b = Serde.encode Serde.string "hello" in
  check Alcotest.bool "truncated rejected" true
    (Serde.decode Serde.string (Bytes.sub b 0 (Bytes.length b - 1)) = None)

let test_serde_map_bijection () =
  let codec = Serde.map Int64.to_int Int64.of_int Serde.u64 in
  check Alcotest.bool "mapped codec" true (roundtrip codec 123456)

(* Fuzz decode on corrupted encodings with the same seeded corruption
   generator the fault-injection suite uses: the decoder must stay total
   (typed [option] result, no exception, no divergence). *)
let test_serde_fuzz_corrupted_total () =
  let g = Bi_core.Gen.of_string "test/serde/fuzz" in
  let total (type a) (codec : a Serde.t) b =
    match Serde.decode codec b with
    | Some _ | None -> ()
    | exception e ->
        Alcotest.failf "decode raised %s on %S" (Printexc.to_string e)
          (Bytes.to_string b)
  in
  for _ = 1 to 500 do
    let corrupt b = Bi_fault.Fault_plan.corrupt_bytes g b in
    total Serde.varint (corrupt (Serde.encode Serde.varint (Bi_core.Gen.int g 1_000_000)));
    total Serde.u64 (corrupt (Serde.encode Serde.u64 (Bi_core.Gen.next64 g)));
    total Serde.string
      (corrupt
         (Serde.encode Serde.string
            (String.init (Bi_core.Gen.int g 24) (fun _ ->
                 Char.chr (Bi_core.Gen.int g 256)))));
    total
      (Serde.list Serde.u16)
      (corrupt
         (Serde.encode (Serde.list Serde.u16)
            (List.init (Bi_core.Gen.int g 6) (fun _ -> Bi_core.Gen.int g 65536))));
    total
      (Serde.option (Serde.pair Serde.varint Serde.bool))
      (Bytes.init (Bi_core.Gen.int g 16) (fun _ ->
           Char.chr (Bi_core.Gen.int g 256)))
  done

let test_serde_decode_prefix_streams () =
  let b = Bytes.cat (Serde.encode Serde.varint 7) (Serde.encode Serde.varint 300) in
  match Serde.decode_prefix Serde.varint b ~off:0 with
  | Some (7, next) -> (
      match Serde.decode_prefix Serde.varint b ~off:next with
      | Some (300, _) -> ()
      | _ -> Alcotest.fail "second value")
  | _ -> Alcotest.fail "first value"

(* ------------------------------------------------------------------ *)
(* Ualloc *)

let test_ualloc_basic () =
  let a = Ualloc.create ~size:256 in
  match (Ualloc.alloc a 10, Ualloc.alloc a 20) with
  | Some o1, Some o2 ->
      check Alcotest.bool "disjoint" true (o1 <> o2);
      check Alcotest.int "rounded accounting" 48 (Ualloc.allocated_bytes a);
      Ualloc.free a o1;
      Ualloc.free a o2;
      check Alcotest.int "all reclaimed" 256 (Ualloc.free_bytes a);
      check Alcotest.bool "invariants" true (Ualloc.check_invariants a)
  | _ -> Alcotest.fail "alloc"

let test_ualloc_exhaustion_and_coalesce () =
  let a = Ualloc.create ~size:64 in
  match (Ualloc.alloc a 32, Ualloc.alloc a 32) with
  | Some o1, Some o2 ->
      check Alcotest.bool "full" true (Ualloc.alloc a 16 = None);
      Ualloc.free a o1;
      Ualloc.free a o2;
      (* Coalesced: a single 64-byte block must fit again. *)
      check Alcotest.bool "coalesced hole fits" true (Ualloc.alloc a 64 <> None)
  | _ -> Alcotest.fail "setup"

let test_ualloc_double_free () =
  let a = Ualloc.create ~size:64 in
  match Ualloc.alloc a 16 with
  | Some o -> (
      Ualloc.free a o;
      match Ualloc.free a o with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "double free must fail")
  | None -> Alcotest.fail "alloc"


(* Satellite: seeded 1000-op alloc/free fuzz over the pooled fast path;
   the pool invariants hold after every operation, and a final free of
   the survivors plus a drain coalesces the arena back to one block. *)
let test_ualloc_pool_fuzz () =
  let module Gen = Bi_core.Gen in
  List.iter
    (fun seed ->
      let g = Gen.create (Int64.of_int (0xF00D + seed)) in
      let p = Ualloc.Pool.create ~size:32768 () in
      let live = ref [] in
      for step = 1 to 1000 do
        (if Gen.bool g || !live = [] then begin
           let n =
             Gen.oneof g [ 16; 48; 64; 200; 256; 1024; 2048; 4096; 6000 ]
           in
           match Ualloc.Pool.alloc p n with
           | Some off -> live := off :: !live
           | None -> ()
         end
         else begin
           let i = Gen.int g (List.length !live) in
           let off = List.nth !live i in
           live := List.filteri (fun j _ -> j <> i) !live;
           Ualloc.Pool.free p off
         end);
        if not (Ualloc.Pool.check_invariants p) then
          Alcotest.failf "pool invariants broken at step %d (seed %d)" step
            seed
      done;
      List.iter (Ualloc.Pool.free p) !live;
      Ualloc.Pool.drain p;
      check Alcotest.int "no live blocks" 0 (Ualloc.Pool.live_blocks p);
      check Alcotest.int "nothing cached" 0 (Ualloc.Pool.cached_blocks p);
      let a = Ualloc.Pool.arena p in
      check Alcotest.int "single coalesced block" 32768 (Ualloc.free_bytes a);
      check Alcotest.int "no arena blocks" 0 (Ualloc.block_count a);
      check Alcotest.bool "final invariants" true
        (Ualloc.Pool.check_invariants p))
    [ 0; 1; 2 ]

let prop_ualloc_invariants_under_churn =
  qtest "invariants under random alloc/free churn" 80
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 100))
    (fun sizes ->
      let a = Ualloc.create ~size:4096 in
      let live = ref [] in
      List.iteri
        (fun i n ->
          if i mod 3 = 2 && !live <> [] then begin
            match !live with
            | o :: rest ->
                Ualloc.free a o;
                live := rest
            | [] -> ()
          end
          else begin
            match Ualloc.alloc a n with
            | Some o -> live := !live @ [ o ]
            | None -> ()
          end)
        sizes;
      Ualloc.check_invariants a)

(* ------------------------------------------------------------------ *)
(* Ustring *)

let test_ustring_memcpy_memmove () =
  let dst = Bytes.make 16 '.' in
  Ustring.memcpy ~dst ~dst_off:2 ~src:(Bytes.of_string "abcd") ~src_off:0 ~len:4;
  check Alcotest.string "memcpy" "..abcd.........." (Bytes.to_string dst);
  (match
     Ustring.memcpy ~dst ~dst_off:3 ~src:dst ~src_off:2 ~len:4
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlap must be rejected");
  Ustring.memmove ~dst ~dst_off:3 ~src:dst ~src_off:2 ~len:4;
  check Alcotest.string "memmove handles overlap" "..aabcd........."
    (Bytes.to_string dst)

let test_ustring_strlen_strcpy () =
  let b = Bytes.make 16 '\xff' in
  Ustring.strcpy ~dst:b ~dst_off:0 "hi";
  check Alcotest.int "strlen" 2 (Ustring.strlen b ~off:0);
  check Alcotest.bool "nul written" true (Bytes.get b 2 = '\000');
  match Ustring.strlen (Bytes.make 4 'x') ~off:0 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unterminated strlen must raise"

let test_ustring_strcmp () =
  let mk s =
    let b = Bytes.make 16 '\000' in
    Ustring.strcpy ~dst:b ~dst_off:0 s;
    b
  in
  check Alcotest.bool "equal" true (Ustring.strcmp (mk "abc") 0 (mk "abc") 0 = 0);
  check Alcotest.bool "prefix is less" true (Ustring.strcmp (mk "ab") 0 (mk "abc") 0 < 0);
  check Alcotest.bool "ordering" true (Ustring.strcmp (mk "abd") 0 (mk "abc") 0 > 0)

let prop_ustring_memcmp_matches_compare =
  qtest "memcmp sign matches String.compare" 200
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range '\001' '\255') (int_range 1 12))
        (string_size ~gen:(char_range '\001' '\255') (int_range 1 12)))
    (fun (a, b) ->
      let n = min (String.length a) (String.length b) in
      let m = Ustring.memcmp (Bytes.of_string a) 0 (Bytes.of_string b) 0 n in
      let c = String.compare (String.sub a 0 n) (String.sub b 0 n) in
      (m = 0 && c = 0) || (m < 0 && c < 0) || (m > 0 && c > 0))

let test_ustring_strchr () =
  let b = Bytes.make 16 '\000' in
  Ustring.strcpy ~dst:b ~dst_off:0 "hello";
  check (Alcotest.option Alcotest.int) "found" (Some 2) (Ustring.strchr b ~off:0 'l');
  check (Alcotest.option Alcotest.int) "absent" None (Ustring.strchr b ~off:0 'z')

(* ------------------------------------------------------------------ *)
(* Futex-based primitives inside the kernel *)

let test_umutex_mutual_exclusion () =
  ignore
    (run_one (fun s ->
         let m = Umutex.create s in
         let shared = ref 0 in
         let in_section = ref false in
         let racy_increment s2 =
           Umutex.with_lock s2 m (fun () ->
               if !in_section then Alcotest.fail "two threads in section";
               in_section := true;
               let v = !shared in
               (* adversarial preemption points *)
               U.yield s2;
               U.yield s2;
               shared := v + 1;
               in_section := false)
         in
         let tids = List.init 5 (fun _ -> U.thread_create s racy_increment) in
         List.iter (fun t -> ignore (U.thread_join s t)) tids;
         check Alcotest.int "no lost updates" 5 !shared))

let test_umutex_trylock () =
  ignore
    (run_one (fun s ->
         let m = Umutex.create s in
         check Alcotest.bool "first trylock wins" true (Umutex.try_lock s m);
         check Alcotest.bool "second fails" false (Umutex.try_lock s m);
         Umutex.unlock s m;
         check Alcotest.bool "after unlock" true (Umutex.try_lock s m)))

let test_umutex_contention_uses_futex () =
  (* A blocked locker must sleep on the futex, not spin: we detect this
     by the waiter making no progress until unlock. *)
  ignore
    (run_one (fun s ->
         let m = Umutex.create s in
         let progress = ref "" in
         Umutex.lock s m;
         let t =
           U.thread_create s (fun s2 ->
               Umutex.lock s2 m;
               progress := !progress ^ "waiter";
               Umutex.unlock s2 m)
         in
         U.yield s;
         U.yield s;
         progress := !progress ^ "owner;";
         Umutex.unlock s m;
         ignore (U.thread_join s t);
         check Alcotest.string "waiter ran only after unlock" "owner;waiter"
           !progress))

let test_umutex_unlock_unlocked_fails () =
  ignore
    (run_one (fun s ->
         let m = Umutex.create s in
         (match Umutex.unlock s m with
         | () -> Alcotest.fail "unlock of a fresh mutex succeeded"
         | exception Failure _ -> ());
         Umutex.lock s m;
         Umutex.unlock s m;
         match Umutex.unlock s m with
         | () -> Alcotest.fail "second unlock succeeded"
         | exception Failure _ -> ()))

let test_usem_producer_consumer () =
  ignore
    (run_one (fun s ->
         let items = Usem.create s 0 in
         let produced = Queue.create () in
         let consumed = ref [] in
         let producer s2 =
           for i = 1 to 4 do
             Queue.push i produced;
             Usem.post s2 items
           done
         in
         let consumer s2 =
           for _ = 1 to 4 do
             Usem.wait s2 items;
             consumed := Queue.pop produced :: !consumed
           done
         in
         let c = U.thread_create s consumer in
         let p = U.thread_create s producer in
         ignore (U.thread_join s p);
         ignore (U.thread_join s c);
         check (Alcotest.list Alcotest.int) "all consumed in order"
           [ 1; 2; 3; 4 ] (List.rev !consumed);
         check Alcotest.int "count restored" 0 (Usem.value s items)))

let test_usem_try_wait () =
  ignore
    (run_one (fun s ->
         let sem = Usem.create s 1 in
         check Alcotest.bool "first succeeds" true (Usem.try_wait s sem);
         check Alcotest.bool "second fails" false (Usem.try_wait s sem);
         Usem.post s sem;
         check Alcotest.bool "after post" true (Usem.try_wait s sem)))

let test_ucond_signal_wakes_waiter () =
  ignore
    (run_one (fun s ->
         let m = Umutex.create s in
         let cv = Ucond.create s in
         let ready = ref false in
         let log = Buffer.create 8 in
         let waiter s2 =
           Umutex.lock s2 m;
           while not !ready do
             Ucond.wait s2 cv m
           done;
           Buffer.add_string log "observed;";
           Umutex.unlock s2 m
         in
         let t = U.thread_create s waiter in
         U.yield s;
         Umutex.lock s m;
         ready := true;
         Buffer.add_string log "set;";
         Ucond.signal s cv;
         Umutex.unlock s m;
         ignore (U.thread_join s t);
         check Alcotest.string "wait/signal protocol" "set;observed;"
           (Buffer.contents log)))

let test_ucond_broadcast () =
  ignore
    (run_one (fun s ->
         let m = Umutex.create s in
         let cv = Ucond.create s in
         let gate = ref false in
         let through = ref 0 in
         let waiter s2 =
           Umutex.lock s2 m;
           while not !gate do
             Ucond.wait s2 cv m
           done;
           incr through;
           Umutex.unlock s2 m
         in
         let ts = List.init 3 (fun _ -> U.thread_create s waiter) in
         U.yield s;
         Umutex.lock s m;
         gate := true;
         Ucond.broadcast s cv;
         Umutex.unlock s m;
         List.iter (fun t -> ignore (U.thread_join s t)) ts;
         check Alcotest.int "all released" 3 !through))

(* ------------------------------------------------------------------ *)
(* Urwlock and Ubarrier *)

module Urwlock = Bi_ulib.Urwlock
module Ubarrier = Bi_ulib.Ubarrier

let test_urwlock_readers_share () =
  ignore
    (run_one (fun s ->
         let l = Urwlock.create s in
         let concurrent_readers = ref 0 in
         let max_seen = ref 0 in
         (* Two yields inside the section: under round-robin, the next
            reader is created only after the first reader's first
            yield, so one yield alone lets every reader finish before
            the next arrives. *)
         let reader s2 =
           Urwlock.with_read s2 l (fun () ->
               incr concurrent_readers;
               max_seen := max !max_seen !concurrent_readers;
               U.yield s2;
               U.yield s2;
               decr concurrent_readers)
         in
         let ts = List.init 3 (fun _ -> U.thread_create s reader) in
         List.iter (fun t -> ignore (U.thread_join s t)) ts;
         check Alcotest.bool "readers overlapped" true (!max_seen >= 2)))

let test_urwlock_writer_excludes () =
  ignore
    (run_one (fun s ->
         let l = Urwlock.create s in
         let in_write = ref false in
         let violations = ref 0 in
         let writer s2 =
           Urwlock.with_write s2 l (fun () ->
               if !in_write then incr violations;
               in_write := true;
               U.yield s2;
               U.yield s2;
               in_write := false)
         in
         let reader s2 =
           Urwlock.with_read s2 l (fun () ->
               if !in_write then incr violations;
               U.yield s2)
         in
         let ts =
           List.init 6 (fun i ->
               U.thread_create s (if i mod 2 = 0 then writer else reader))
         in
         List.iter (fun t -> ignore (U.thread_join s t)) ts;
         check Alcotest.int "no writer overlap" 0 !violations))

let test_urwlock_writer_waits_for_readers () =
  ignore
    (run_one (fun s ->
         let l = Urwlock.create s in
         let log = Buffer.create 16 in
         Urwlock.read_lock s l;
         let w =
           U.thread_create s (fun s2 ->
               Urwlock.write_lock s2 l;
               Buffer.add_string log "writer;";
               Urwlock.write_unlock s2 l)
         in
         U.yield s;
         Buffer.add_string log "reader-done;";
         Urwlock.read_unlock s l;
         ignore (U.thread_join s w);
         check Alcotest.string "order" "reader-done;writer;" (Buffer.contents log)))

let test_ubarrier_releases_all () =
  ignore
    (run_one (fun s ->
         let b = Ubarrier.create s ~parties:4 in
         let before = ref 0 and after = ref 0 in
         let party s2 =
           incr before;
           ignore (Ubarrier.await s2 b);
           (* Nobody passes until everyone arrived. *)
           check Alcotest.int "all arrived before release" 4 !before;
           incr after
         in
         let ts = List.init 3 (fun _ -> U.thread_create s party) in
         party s;
         List.iter (fun t -> ignore (U.thread_join s t)) ts;
         check Alcotest.int "all released" 4 !after))

let test_ubarrier_cyclic () =
  ignore
    (run_one (fun s ->
         let b = Ubarrier.create s ~parties:2 in
         let rounds = ref 0 in
         let partner s2 =
           for _ = 1 to 3 do
             ignore (Ubarrier.await s2 b)
           done
         in
         let t = U.thread_create s partner in
         for _ = 1 to 3 do
           ignore (Ubarrier.await s b);
           incr rounds
         done;
         ignore (U.thread_join s t);
         check Alcotest.int "three rounds completed" 3 !rounds))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bi_ulib"
    [
      ( "serde",
        [
          prop_serde_varint;
          prop_serde_u64;
          prop_serde_string;
          prop_serde_composite;
          Alcotest.test_case "varint compact" `Quick test_serde_varint_compact;
          Alcotest.test_case "trailing rejected" `Quick test_serde_rejects_trailing;
          Alcotest.test_case "truncated rejected" `Quick test_serde_rejects_truncated;
          Alcotest.test_case "map bijection" `Quick test_serde_map_bijection;
          Alcotest.test_case "fuzz corrupted bytes total" `Quick
            test_serde_fuzz_corrupted_total;
          Alcotest.test_case "decode_prefix streams" `Quick test_serde_decode_prefix_streams;
        ] );
      ( "ualloc",
        [
          Alcotest.test_case "basic" `Quick test_ualloc_basic;
          Alcotest.test_case "exhaustion + coalesce" `Quick test_ualloc_exhaustion_and_coalesce;
          Alcotest.test_case "double free" `Quick test_ualloc_double_free;
          prop_ualloc_invariants_under_churn;
          Alcotest.test_case "pool fuzz 1000 ops" `Quick test_ualloc_pool_fuzz;
        ] );
      ( "ustring",
        [
          Alcotest.test_case "memcpy/memmove" `Quick test_ustring_memcpy_memmove;
          Alcotest.test_case "strlen/strcpy" `Quick test_ustring_strlen_strcpy;
          Alcotest.test_case "strcmp" `Quick test_ustring_strcmp;
          prop_ustring_memcmp_matches_compare;
          Alcotest.test_case "strchr" `Quick test_ustring_strchr;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex mutual exclusion" `Quick test_umutex_mutual_exclusion;
          Alcotest.test_case "mutex trylock" `Quick test_umutex_trylock;
          Alcotest.test_case "mutex blocks on futex" `Quick test_umutex_contention_uses_futex;
          Alcotest.test_case "semaphore producer/consumer" `Quick test_usem_producer_consumer;
          Alcotest.test_case "semaphore try_wait" `Quick test_usem_try_wait;
          Alcotest.test_case "condvar signal" `Quick test_ucond_signal_wakes_waiter;
          Alcotest.test_case "condvar broadcast" `Quick test_ucond_broadcast;
          Alcotest.test_case "unlock of an unlocked mutex fails" `Quick
            test_umutex_unlock_unlocked_fails;
        ] );
      ( "rwlock-barrier",
        [
          Alcotest.test_case "readers share" `Quick test_urwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick test_urwlock_writer_excludes;
          Alcotest.test_case "writer waits for readers" `Quick
            test_urwlock_writer_waits_for_readers;
          Alcotest.test_case "barrier releases all" `Quick test_ubarrier_releases_all;
          Alcotest.test_case "barrier cyclic" `Quick test_ubarrier_cyclic;
        ] );
    ]

