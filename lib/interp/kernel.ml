(* Batched imperative kernel tier.

   [compile] lowers a validated graph plus a symbol valuation one level below
   Plan's closure trees into a flat imperative program: tasklet code becomes a
   typed array of instructions (loads/stores with pre-resolved strides, scalar
   ALU ops over an integer-indexed register file), maps and states become
   loop/scope frames over that stream. [execute_batch] runs the program over
   Bigarray-backed dense buffers carrying an extra batch axis, so one sweep
   over the instruction stream evaluates N mutated inputs structure-of-arrays
   style (element-major, lane-minor: element [e] of lane [l] lives at
   [e * nlanes + l]).

   The contract is the same differential obligation Plan carries against the
   tree-walk: verdicts, step/write/subset counters, per-lane coverage digests
   and fault messages must stay bit-identical to the serial plan path for
   every lane. The batch executes lanes in lockstep and that lockstep is only
   valid while control flow, addressing and counters are uniform across the
   batch — which they are whenever no lane faults and no interstate value
   diverges, the overwhelmingly common case in a fuzzing loop where all lanes
   share one symbol valuation. The moment any lane would diverge (a per-lane
   fault, a scalar-container-dependent condition or interstate assignment
   disagreeing between lanes), the sweep abandons the batch and replays every
   lane through the same machinery at batch width 1, where lockstep holds
   trivially and the width-1 kernel is a line-for-line port of Plan's
   execution order. Divergence is detected conservatively *before* it can
   contaminate an observable result, so the fast path never returns anything
   the replay path would not.

   test/test_kernel.ml holds the three-tier differential proof obligation. *)

open Sdfg
open Defs

(* ------------------------------------------------------------------ *)
(* Batched run-time state                                              *)
(* ------------------------------------------------------------------ *)

type kbuffer = {
  kb_name : string;
  kb_desc : Graph.datadesc;
  kb_shape : int array;
  kb_nelem : int;  (* elements per lane *)
  kb_data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* kb_nelem * nlanes, lane-minor *)
}

type krt = {
  cfg : config;
  nl : int;  (* batch width (lane count) *)
  kbufs : kbuffer array;
  params : int array;  (* map-parameter registers, uniform across lanes *)
  dvals : int array;  (* dynamic symbol values, uniform by invariant *)
  dset : bool array;
  mutable steps : int;  (* counters are uniform across lanes by invariant *)
  mutable writes : int;
  mutable subsets : int;
  covs : (int, unit) Hashtbl.t array;  (* per-lane coverage *)
  sel : int array;  (* per-lane Select site counter within one invocation *)
  lanes0 : int array;  (* [|0; ..; nl-1|], the full active-lane set *)
}

(* Raised (batch width > 1 only) when lanes would stop being in lockstep;
   the batch is then replayed lane-by-lane at width 1. *)
exception Divergent

let tick ?(cost = 1) rt =
  rt.steps <- rt.steps + cost;
  (match rt.cfg.inject with
  | Some (Burn_steps { after }) when rt.steps >= after ->
      rt.steps <- rt.steps + rt.cfg.step_limit
  | _ -> ());
  if rt.steps > rt.cfg.step_limit then raise (F (Hang { steps = rt.steps }))

let record_all rt d =
  if rt.cfg.collect_coverage then
    for l = 0 to rt.nl - 1 do
      Hashtbl.replace rt.covs.(l) d ()
    done

(* ------------------------------------------------------------------ *)
(* Lowered integer expressions with uniformity tracking                *)
(* ------------------------------------------------------------------ *)

let ifdiv a b =
  if b = 0 then raise Symbolic.Expr.Division_by_zero
  else
    let q = a / b and r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let ifmod a b =
  if b = 0 then raise Symbolic.Expr.Division_by_zero
  else
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r

(* [sc] marks an expression that may read a scalar container — the only
   per-lane data source an integer expression can reach. Everything else
   (params, dynamic symbols, statics) is uniform across the batch, so a
   non-[sc] expression is evaluated once on lane 0. *)
type kexpr = Kc of int | Kd of { sc : bool; f : krt -> int -> int }

let kforce = function Kc k -> fun _ _ -> k | Kd d -> d.f
let ksc = function Kc _ -> false | Kd d -> d.sc

let klift1 f = function
  | Kc a -> Kc (f a)
  | Kd d -> Kd { sc = d.sc; f = (fun rt l -> f (d.f rt l)) }

(* Right operand first, as the reference interpreter and Plan.lift2; a
   constant division by zero refolds to a closure that raises at run time. *)
let klift2 f a b =
  match (a, b) with
  | Kc x, Kc y -> (
      match f x y with
      | v -> Kc v
      | exception Symbolic.Expr.Division_by_zero ->
          Kd { sc = false; f = (fun _ _ -> raise Symbolic.Expr.Division_by_zero) })
  | _ ->
      let fa = kforce a and fb = kforce b in
      Kd
        {
          sc = ksc a || ksc b;
          f =
            (fun rt l ->
              let vb = fb rt l in
              let va = fa rt l in
              f va vb);
        }

(* Uniform evaluation: lane 0's value, with a lockstep check over the other
   lanes when the expression can see per-lane data. A lane whose evaluation
   faults where lane 0's did not raises that fault, which the batch-level
   guard turns into a replay. *)
let ueval rt e =
  match e with
  | Kc k -> k
  | Kd { sc; f } ->
      let v = f rt 0 in
      if sc && rt.nl > 1 then
        for l = 1 to rt.nl - 1 do
          if f rt l <> v then raise Divergent
        done;
      v

(* ------------------------------------------------------------------ *)
(* Compile-time environment (same shape as Plan's)                     *)
(* ------------------------------------------------------------------ *)

type cenv = {
  cg : Graph.t;
  buf_idx : (string, int) Hashtbl.t;
  scalar_idx : (string, int) Hashtbl.t;
  dyn_idx : (string, int) Hashtbl.t;
  static : int Symbolic.Expr.Env.t;
  mutable nparams : int;
}

let scalar_read bid rt l = int_of_float (Bigarray.Array1.get rt.kbufs.(bid).kb_data l)

let klower_sym cv sparams ~interstate s =
  match List.assoc_opt s sparams with
  | Some slot -> Kd { sc = false; f = (fun rt _ -> rt.params.(slot)) }
  | None -> (
      match Hashtbl.find_opt cv.dyn_idx s with
      | Some i -> (
          match if interstate then Hashtbl.find_opt cv.scalar_idx s else None with
          | Some bid ->
              Kd
                {
                  sc = true;
                  f = (fun rt l -> if rt.dset.(i) then rt.dvals.(i) else scalar_read bid rt l);
                }
          | None ->
              Kd
                {
                  sc = false;
                  f =
                    (fun rt _ ->
                      if rt.dset.(i) then rt.dvals.(i)
                      else raise (Symbolic.Expr.Unbound_symbol s));
                })
      | None -> (
          match Symbolic.Expr.Env.find_opt s cv.static with
          | Some v -> Kc v
          | None -> (
              match if interstate then Hashtbl.find_opt cv.scalar_idx s else None with
              | Some bid -> Kd { sc = true; f = scalar_read bid }
              | None ->
                  Kd { sc = false; f = (fun _ _ -> raise (Symbolic.Expr.Unbound_symbol s)) })))

let rec klower_expr cv sparams ~interstate (e : Symbolic.Expr.t) =
  let go x = klower_expr cv sparams ~interstate x in
  match e with
  | Symbolic.Expr.Int n -> Kc n
  | Symbolic.Expr.Sym s -> klower_sym cv sparams ~interstate s
  | Symbolic.Expr.Add (a, b) -> klift2 ( + ) (go a) (go b)
  | Symbolic.Expr.Sub (a, b) -> klift2 ( - ) (go a) (go b)
  | Symbolic.Expr.Mul (a, b) -> klift2 ( * ) (go a) (go b)
  | Symbolic.Expr.Div (a, b) -> klift2 ifdiv (go a) (go b)
  | Symbolic.Expr.Mod (a, b) -> klift2 ifmod (go a) (go b)
  | Symbolic.Expr.Min (a, b) -> klift2 Stdlib.min (go a) (go b)
  | Symbolic.Expr.Max (a, b) -> klift2 Stdlib.max (go a) (go b)
  | Symbolic.Expr.Neg a -> klift1 (fun x -> -x) (go a)

type kcond = { csc : bool; cf : krt -> int -> bool }

(* Comparisons evaluate their right operand first; And/Or short-circuit
   left-first, exactly as Cond.eval. *)
let rec klower_cond cv (c : Symbolic.Cond.t) =
  let e x =
    let k = klower_expr cv [] ~interstate:true x in
    (ksc k, kforce k)
  in
  let cmp op a b =
    let sa, fa = e a and sb, fb = e b in
    {
      csc = sa || sb;
      cf =
        (fun rt l ->
          let vb = fb rt l in
          let va = fa rt l in
          op va vb);
    }
  in
  match c with
  | Symbolic.Cond.True -> { csc = false; cf = (fun _ _ -> true) }
  | Symbolic.Cond.False -> { csc = false; cf = (fun _ _ -> false) }
  | Symbolic.Cond.Lt (a, b) -> cmp ( < ) a b
  | Symbolic.Cond.Le (a, b) -> cmp ( <= ) a b
  | Symbolic.Cond.Gt (a, b) -> cmp ( > ) a b
  | Symbolic.Cond.Ge (a, b) -> cmp ( >= ) a b
  | Symbolic.Cond.Eq (a, b) -> cmp ( = ) a b
  | Symbolic.Cond.Ne (a, b) -> cmp ( <> ) a b
  | Symbolic.Cond.And (a, b) ->
      let la = klower_cond cv a and lb = klower_cond cv b in
      { csc = la.csc || lb.csc; cf = (fun rt l -> la.cf rt l && lb.cf rt l) }
  | Symbolic.Cond.Or (a, b) ->
      let la = klower_cond cv a and lb = klower_cond cv b in
      { csc = la.csc || lb.csc; cf = (fun rt l -> la.cf rt l || lb.cf rt l) }
  | Symbolic.Cond.Not a ->
      let la = klower_cond cv a in
      { csc = la.csc; cf = (fun rt l -> not (la.cf rt l)) }

let ueval_cond rt (c : kcond) =
  let v = c.cf rt 0 in
  if c.csc && rt.nl > 1 then
    for l = 1 to rt.nl - 1 do
      if c.cf rt l <> v then raise Divergent
    done;
  v

(* ------------------------------------------------------------------ *)
(* Lowered subsets                                                     *)
(* ------------------------------------------------------------------ *)

type klrange =
  | KLc of Symbolic.Subset.crange
  | KLd of (krt -> int -> int) * (krt -> int -> int) * (krt -> int -> int)  (* lo, hi, step *)

(* Memlet subsets never reach scalar containers (they are lowered with
   ~interstate:false), so ranges, points and subsets are uniform across the
   batch and evaluated on lane 0 only. *)
type klsub =
  | KSscalar
  | KSpoint of (krt -> int -> int) array
  | KSconst of Symbolic.Subset.crange list
  | KSdyn of klrange array

let klower_range cv sparams (r : Symbolic.Subset.range) =
  let lo = klower_expr cv sparams ~interstate:false r.lo in
  let hi = klower_expr cv sparams ~interstate:false r.hi in
  let step = klower_expr cv sparams ~interstate:false r.step in
  match (lo, hi, step) with
  | Kc l, Kc h, Kc s -> KLc { Symbolic.Subset.clo = l; chi = h; cstep = s }
  | _ -> KLd (kforce lo, kforce hi, kforce step)

(* Same point classification as Plan.lower_subset: lo and hi structurally
   equal (skipping hi cannot skip a distinct exception) and a constant-1
   step; requested only for tasklet memlets. *)
let klower_subset cv sparams ~point (s : Symbolic.Subset.t) =
  match s with
  | [] -> KSscalar
  | _ ->
      let is_point =
        point
        && List.for_all
             (fun (r : Symbolic.Subset.range) ->
               r.lo = r.hi
               &&
               match klower_expr cv sparams ~interstate:false r.step with
               | Kc 1 -> true
               | _ -> false)
             s
      in
      if is_point then
        KSpoint
          (Array.of_list
             (List.map
                (fun (r : Symbolic.Subset.range) ->
                  kforce (klower_expr cv sparams ~interstate:false r.lo))
                s))
      else
        let ls = List.map (klower_range cv sparams) s in
        if List.for_all (function KLc _ -> true | KLd _ -> false) ls then
          KSconst (List.map (function KLc c -> c | KLd _ -> assert false) ls)
        else KSdyn (Array.of_list ls)

(* step, then hi, then lo — Subset.concretize_range's record-literal order. *)
let keval_range rt = function
  | KLc c -> c
  | KLd (flo, fhi, fstep) ->
      let cstep = fstep rt 0 in
      let chi = fhi rt 0 in
      let clo = flo rt 0 in
      { Symbolic.Subset.clo; chi; cstep }

let subset_fault = function
  | Symbolic.Expr.Unbound_symbol s ->
      F (Runtime_error ("unbound symbol " ^ s ^ " in subset"))
  | Symbolic.Expr.Division_by_zero -> F (Runtime_error "division by zero in subset")
  | e -> e

let kconcretize_sub rt ls =
  let cs =
    match ls with
    | KSscalar -> []
    | KSconst cs -> cs
    | KSdyn lrs -> (
        try Array.to_list (Array.map (keval_range rt) lrs) with e -> raise (subset_fault e))
    | KSpoint _ -> assert false
  in
  match cs with
  | [] -> cs
  | (r : Symbolic.Subset.crange) :: rest ->
      let cs =
        match rt.cfg.inject with
        | Some (Shift_index { nth_subset; delta }) when rt.subsets = nth_subset ->
            { r with Symbolic.Subset.clo = r.clo + delta; chi = r.chi + delta } :: rest
        | _ -> cs
      in
      rt.subsets <- rt.subsets + 1;
      cs

let keval_point rt fs =
  let idx = try Array.map (fun f -> f rt 0) fs with e -> raise (subset_fault e) in
  (match rt.cfg.inject with
  | Some (Shift_index { nth_subset; delta }) when rt.subsets = nth_subset ->
      idx.(0) <- idx.(0) + delta
  | _ -> ());
  rt.subsets <- rt.subsets + 1;
  idx

(* ------------------------------------------------------------------ *)
(* Buffer addressing and write interception                            *)
(* ------------------------------------------------------------------ *)

type kbref = KBok of int | KBmissing of string

let kgetbuf rt = function
  | KBok i -> rt.kbufs.(i)
  | KBmissing name ->
      raise (F (Invalid_graph ("reference to unallocated container " ^ name)))

(* Same checks and order as Value.offset, against the per-lane shape. *)
let koffset b idx =
  let dims = Array.length b.kb_shape in
  if Array.length idx <> dims then
    raise (Value.Out_of_bounds { container = b.kb_name; index = idx; shape = b.kb_shape });
  let off = ref 0 in
  for d = 0 to dims - 1 do
    let i = idx.(d) in
    if i < 0 || i >= b.kb_shape.(d) then
      raise (Value.Out_of_bounds { container = b.kb_name; index = idx; shape = b.kb_shape });
    off := (!off * b.kb_shape.(d)) + i
  done;
  !off

let subset_volume cs =
  List.fold_left (fun acc r -> acc * Symbolic.Subset.crange_count r) 1 cs

(* Flat offsets of a concrete subset, visiting elements in exactly
   Value.iter_subset's row-major order so the first out-of-bounds element
   raises before any later element is touched. *)
let offsets_of_sub b cs =
  let ranges = Array.of_list cs in
  let dims = Array.length ranges in
  if dims = 0 then [| koffset b [||] |]
  else begin
    let counts = Array.map Symbolic.Subset.crange_count ranges in
    let total = Array.fold_left ( * ) 1 counts in
    if total <= 0 then [||]
    else begin
      let out = Array.make total 0 in
      let idx = Array.make dims 0 in
      for flat = 0 to total - 1 do
        let rem = ref flat in
        for d = dims - 1 downto 0 do
          let c = counts.(d) in
          let pos = !rem mod c in
          rem := !rem / c;
          idx.(d) <- ranges.(d).Symbolic.Subset.clo + (pos * ranges.(d).Symbolic.Subset.cstep)
        done;
        out.(flat) <- koffset b idx
      done;
      out
    end
  end

let oob_fault context = function
  | Value.Out_of_bounds { container; index; shape } ->
      F (Out_of_bounds { container; index; shape; context })
  | e -> e

(* The write counter advances once per write operation (uniform across
   lanes); the returned patch is then applied to every lane's own value at
   the injected position — which is what N serial runs at the same counter
   each do to their own value. *)
let wpatch rt =
  let k =
    match rt.cfg.inject with
    | Some (Flip_bit { nth_write; bit }) when rt.writes = nth_write -> `Flip bit
    | Some (Set_nan { nth_write }) when rt.writes = nth_write -> `Nan
    | Some (Set_inf { nth_write }) when rt.writes = nth_write -> `Inf
    | _ -> `No
  in
  rt.writes <- rt.writes + 1;
  k

let apply_patch k v =
  match k with
  | `No -> v
  | `Flip bit ->
      Int64.float_of_bits
        (Int64.logxor (Int64.bits_of_float v) (Int64.shift_left 1L (bit land 63)))
  | `Nan -> Float.nan
  | `Inf -> Float.infinity

(* ------------------------------------------------------------------ *)
(* Tasklet instruction stream                                          *)
(* ------------------------------------------------------------------ *)

(* Registers index a unified file: connector slots first, then expression
   temporaries; register [r] of lane [l] lives at [r * nlanes + l]. *)
type tinstr =
  | Iconst of int * float  (* dst, literal *)
  | Imov of int * int  (* dst, src *)
  | Iparam of int * int  (* dst, map-parameter slot *)
  | Idyn of int * int * fault  (* dst, dynamic slot, unbound fault *)
  | Ifail of fault  (* unbound reference *)
  | Ibin of Tcode.binop * int * int * int  (* dst, a, b *)
  | Iun of Tcode.unop * int * int
  | Icmp of Tcode.cmpop * int * int * int
  | Isel of { s_cond : int; s_then : tinstr array; s_else : tinstr array }
      (* both branch streams end by moving their result into the select's
         destination register for their partition of the lanes *)

type ktask_read = { krd_buf : kbref; krd_sub : klsub; krd_slot : int; krd_ctx : string }
type kwsrc = KWslot of int | KWmissing of string

type ktask_write = {
  kwr_src : kwsrc;
  kwr_buf : kbref;
  kwr_sub : klsub;
  kwr_wcr : Memlet.wcr option;
  kwr_ctx : string;
}

type ktask = {
  k_host_fault : fault option;
  k_reads : ktask_read array;  (* in in-edge order *)
  k_prog : tinstr array;  (* all assignments, flattened in order *)
  k_writes : ktask_write array;  (* in out-edge order *)
  k_nregs : int;
  mutable k_regs : float array;  (* k_nregs * nlanes, grown lazily *)
  k_sel_digests : int array;
  k_sid : int;
  k_nid : int;
}

(* Instruction interpreter. [lanes] is the active lane set — all lanes at
   tasklet entry, partitioned by Select conditions below. All effects are
   lane-local (registers, the per-lane select counter, per-lane coverage), so
   executing the taken partition before the untaken one is unobservable. *)
let rec exec_tinstrs rt (t : ktask) regs lanes prog =
  Array.iter (exec_tinstr rt t regs lanes) prog

and exec_tinstr rt (t : ktask) regs lanes instr =
  let nl = rt.nl in
  match instr with
  | Iconst (d, v) -> Array.iter (fun l -> regs.((d * nl) + l) <- v) lanes
  | Imov (d, s) -> Array.iter (fun l -> regs.((d * nl) + l) <- regs.((s * nl) + l)) lanes
  | Iparam (d, p) ->
      let v = float_of_int rt.params.(p) in
      Array.iter (fun l -> regs.((d * nl) + l) <- v) lanes
  | Idyn (d, i, unbound) ->
      if rt.dset.(i) then begin
        let v = float_of_int rt.dvals.(i) in
        Array.iter (fun l -> regs.((d * nl) + l) <- v) lanes
      end
      else raise (F unbound)
  | Ifail f -> raise (F f)
  | Ibin (op, d, a, b) ->
      Array.iter
        (fun l -> regs.((d * nl) + l) <- apply_bin op regs.((a * nl) + l) regs.((b * nl) + l))
        lanes
  | Iun (op, d, a) ->
      Array.iter (fun l -> regs.((d * nl) + l) <- apply_un op regs.((a * nl) + l)) lanes
  | Icmp (op, d, a, b) ->
      Array.iter
        (fun l -> regs.((d * nl) + l) <- apply_cmp op regs.((a * nl) + l) regs.((b * nl) + l))
        lanes
  | Isel { s_cond; s_then; s_else } ->
      let n = Array.length lanes in
      let taken = Array.make n false in
      let ntaken = ref 0 in
      for j = 0 to n - 1 do
        let l = lanes.(j) in
        let tk = regs.((s_cond * nl) + l) <> 0. in
        taken.(j) <- tk;
        if tk then incr ntaken;
        let k = rt.sel.(l) in
        rt.sel.(l) <- k + 1;
        if rt.cfg.collect_coverage then begin
          let i = (2 * k) + Bool.to_int tk in
          if i < Array.length t.k_sel_digests then
            Hashtbl.replace rt.covs.(l) t.k_sel_digests.(i) ()
          else
            Hashtbl.replace rt.covs.(l)
              (cov_digest (Cov_select { state = t.k_sid; node = t.k_nid; site = k; taken = tk }))
              ()
        end
      done;
      if !ntaken = n then exec_tinstrs rt t regs lanes s_then
      else if !ntaken = 0 then exec_tinstrs rt t regs lanes s_else
      else begin
        (* Divergent select: each partition runs only its own branch, so the
           untaken branch's effects (nested select counters, coverage,
           unbound-reference faults) stay lazily skipped per lane exactly as
           in a serial run. A fault inside a partial partition aborts the
           batch via the width-guard below. *)
        let tl = Array.make !ntaken 0 and el = Array.make (n - !ntaken) 0 in
        let ti = ref 0 and ei = ref 0 in
        for j = 0 to n - 1 do
          if taken.(j) then begin
            tl.(!ti) <- lanes.(j);
            incr ti
          end
          else begin
            el.(!ei) <- lanes.(j);
            incr ei
          end
        done;
        exec_tinstrs rt t regs tl s_then;
        exec_tinstrs rt t regs el s_else
      end

let kregs rt (t : ktask) =
  let need = max 1 (t.k_nregs * rt.nl) in
  if Array.length t.k_regs < need then t.k_regs <- Array.make need 0.;
  t.k_regs

(* ------------------------------------------------------------------ *)
(* Tasklet reads and writes                                            *)
(* ------------------------------------------------------------------ *)

let kread_single rt regs (r : ktask_read) =
  let nl = rt.nl in
  let b = kgetbuf rt r.krd_buf in
  let base = r.krd_slot * nl in
  match r.krd_sub with
  | KSpoint fs ->
      let idx = keval_point rt fs in
      let off = try koffset b idx with e -> raise (oob_fault r.krd_ctx e) in
      let ebase = off * nl in
      for l = 0 to nl - 1 do
        regs.(base + l) <- Bigarray.Array1.unsafe_get b.kb_data (ebase + l)
      done
  | ls ->
      let cs = kconcretize_sub rt ls in
      let vol = subset_volume cs in
      (* offsets (hence bounds faults) first, then the volume check, matching
         read_subset-then-length-test; volume 0 reads back read_subset's
         synthetic 0. *)
      let offs = try offsets_of_sub b cs with e -> raise (oob_fault r.krd_ctx e) in
      if max 1 vol <> 1 then
        raise
          (F
             (Invalid_graph
                (Printf.sprintf "%s: tasklet memlet must have volume 1 (got %d)" r.krd_ctx
                   (max 1 vol))))
      else if vol = 0 then
        for l = 0 to nl - 1 do
          regs.(base + l) <- 0.
        done
      else begin
        let ebase = offs.(0) * nl in
        for l = 0 to nl - 1 do
          regs.(base + l) <- Bigarray.Array1.unsafe_get b.kb_data (ebase + l)
        done
      end

let kwrite_single rt regs (w : ktask_write) src_slot =
  let nl = rt.nl in
  let b = kgetbuf rt w.kwr_buf in
  let dt = b.kb_desc.Graph.dtype in
  let base = src_slot * nl in
  match w.kwr_sub with
  | KSpoint fs -> (
      let idx = keval_point rt fs in
      let k = wpatch rt in
      let off = try koffset b idx with e -> raise (oob_fault w.kwr_ctx e) in
      let ebase = off * nl in
      match w.kwr_wcr with
      | None ->
          for l = 0 to nl - 1 do
            Bigarray.Array1.unsafe_set b.kb_data (ebase + l)
              (Value.cast dt (apply_patch k regs.(base + l)))
          done
      | Some wc ->
          for l = 0 to nl - 1 do
            let old = Bigarray.Array1.unsafe_get b.kb_data (ebase + l) in
            Bigarray.Array1.unsafe_set b.kb_data (ebase + l)
              (Value.cast dt (Memlet.apply_wcr wc old (apply_patch k regs.(base + l))))
          done)
  | ls -> (
      let cs = kconcretize_sub rt ls in
      let k = wpatch rt in
      (* write_subset's volume test fires before any element is touched *)
      let vol = max 1 (subset_volume cs) in
      if vol <> 1 then
        invalid_arg
          (Printf.sprintf "Value.%s: %d values for volume-%d subset of %s"
             (match w.kwr_wcr with None -> "write_subset" | Some _ -> "accumulate_subset")
             1 vol b.kb_name);
      if subset_volume cs = 0 then ()
      else
        let offs = try offsets_of_sub b cs with e -> raise (oob_fault w.kwr_ctx e) in
        let ebase = offs.(0) * nl in
        match w.kwr_wcr with
        | None ->
            for l = 0 to nl - 1 do
              Bigarray.Array1.unsafe_set b.kb_data (ebase + l)
                (Value.cast dt (apply_patch k regs.(base + l)))
            done
        | Some wc ->
            for l = 0 to nl - 1 do
              let old = Bigarray.Array1.unsafe_get b.kb_data (ebase + l) in
              Bigarray.Array1.unsafe_set b.kb_data (ebase + l)
                (Value.cast dt (Memlet.apply_wcr wc old (apply_patch k regs.(base + l))))
            done)

let exec_ktask rt (t : ktask) =
  (match t.k_host_fault with Some f -> raise (F f) | None -> ());
  tick rt;
  let regs = kregs rt t in
  Array.iter (fun r -> kread_single rt regs r) t.k_reads;
  Array.fill rt.sel 0 rt.nl 0;
  exec_tinstrs rt t regs rt.lanes0 t.k_prog;
  Array.iter
    (fun w ->
      match w.kwr_src with
      | KWslot i -> kwrite_single rt regs w i
      | KWmissing msg -> raise (F (Invalid_graph msg)))
    t.k_writes
(* ------------------------------------------------------------------ *)
(* Library nodes                                                       *)
(* ------------------------------------------------------------------ *)

type klib_conn =
  | KCok of { kc_buf : kbref; kc_sub : klsub; kc_wcr : Memlet.wcr option; kc_ctx : string }
  | KCmissing of string

type klib = {
  kl_nid : int;
  kl_kind : Node.lib_kind;
  kl_host_fault : fault option;
  kl_a : klib_conn;  (* "A" / "in" *)
  kl_b : klib_conn option;  (* "B"; None for Reduce *)
  kl_out : klib_conn;  (* "C" / "out" *)
}

(* Counters and bounds faults of the read happen once (uniform); the actual
   per-lane data gather is deferred to the compute loop. *)
let klib_read rt = function
  | KCmissing msg -> raise (F (Invalid_graph msg))
  | KCok { kc_buf; kc_sub; kc_ctx; _ } ->
      let b = kgetbuf rt kc_buf in
      let cs = kconcretize_sub rt kc_sub in
      let counts = List.map Symbolic.Subset.crange_count cs in
      let offs = try offsets_of_sub b cs with e -> raise (oob_fault kc_ctx e) in
      (b, offs, counts)

(* One lane's values of a pre-resolved offset list, with read_subset's
   synthetic element for volume-0 subsets. *)
let gather_lane (b : kbuffer) offs l nl =
  let n = Array.length offs in
  let out = Array.make (max 1 n) 0. in
  for i = 0 to n - 1 do
    out.(i) <- Bigarray.Array1.unsafe_get b.kb_data ((offs.(i) * nl) + l)
  done;
  out

(* [values] holds one equally-long array per lane (the library compute is
   shape-uniform); counter discipline and the write-subset volume test fire
   once, then every lane scatters its own values. *)
let klib_write rt conn (values : float array array) =
  match conn with
  | KCmissing msg -> raise (F (Invalid_graph msg))
  | KCok { kc_buf; kc_sub; kc_wcr; kc_ctx } ->
      let nl = rt.nl in
      let b = kgetbuf rt kc_buf in
      let dt = b.kb_desc.Graph.dtype in
      let cs = kconcretize_sub rt kc_sub in
      let k = wpatch rt in
      let len = Array.length values.(0) in
      let vol = max 1 (subset_volume cs) in
      if len <> vol then
        invalid_arg
          (Printf.sprintf "Value.%s: %d values for volume-%d subset of %s"
             (match kc_wcr with None -> "write_subset" | Some _ -> "accumulate_subset")
             len vol b.kb_name);
      if subset_volume cs = 0 then ()
      else begin
        let offs = try offsets_of_sub b cs with e -> raise (oob_fault kc_ctx e) in
        match kc_wcr with
        | None ->
            for l = 0 to nl - 1 do
              let v = values.(l) in
              for i = 0 to len - 1 do
                let x = if i = 0 then apply_patch k v.(0) else v.(i) in
                Bigarray.Array1.unsafe_set b.kb_data ((offs.(i) * nl) + l) (Value.cast dt x)
              done
            done
        | Some wc ->
            for l = 0 to nl - 1 do
              let v = values.(l) in
              for i = 0 to len - 1 do
                let x = if i = 0 then apply_patch k v.(0) else v.(i) in
                let old = Bigarray.Array1.unsafe_get b.kb_data ((offs.(i) * nl) + l) in
                Bigarray.Array1.unsafe_set b.kb_data ((offs.(i) * nl) + l)
                  (Value.cast dt (Memlet.apply_wcr wc old x))
              done
            done
      end

let exec_klib rt (lib : klib) =
  (match lib.kl_host_fault with Some f -> raise (F f) | None -> ());
  tick rt;
  let nl = rt.nl in
  match lib.kl_kind with
  | Node.Mat_mul -> (
      let ba, aoffs, adims = klib_read rt lib.kl_a in
      let bb, boffs, bdims = klib_read rt (Option.get lib.kl_b) in
      match (adims, bdims) with
      | [ m; k ], [ k'; n ] when k = k' ->
          tick rt ~cost:(m * n * k);
          let cvals =
            Array.init nl (fun l ->
                let a = gather_lane ba aoffs l nl in
                let b = gather_lane bb boffs l nl in
                let c = Array.make (m * n) 0. in
                for i = 0 to m - 1 do
                  for j = 0 to n - 1 do
                    let acc = ref 0. in
                    for p = 0 to k - 1 do
                      acc := !acc +. (a.((i * k) + p) *. b.((p * n) + j))
                    done;
                    c.((i * n) + j) <- !acc
                  done
                done;
                c)
          in
          klib_write rt lib.kl_out cvals
      | _ ->
          raise
            (F (Invalid_graph (Printf.sprintf "matmul node %d: incompatible shapes" lib.kl_nid)))
      )
  | Node.Batched_mat_mul -> (
      let ba, aoffs, adims = klib_read rt lib.kl_a in
      let bb, boffs, bdims = klib_read rt (Option.get lib.kl_b) in
      match (adims, bdims) with
      | [ bt; m; k ], [ bt'; k'; n ] when k = k' && bt = bt' ->
          tick rt ~cost:(bt * m * n * k);
          let cvals =
            Array.init nl (fun l ->
                let a = gather_lane ba aoffs l nl in
                let b = gather_lane bb boffs l nl in
                let c = Array.make (bt * m * n) 0. in
                for bi = 0 to bt - 1 do
                  for i = 0 to m - 1 do
                    for j = 0 to n - 1 do
                      let acc = ref 0. in
                      for p = 0 to k - 1 do
                        acc :=
                          !acc
                          +. (a.((bi * m * k) + (i * k) + p) *. b.((bi * k * n) + (p * n) + j))
                      done;
                      c.((bi * m * n) + (i * n) + j) <- !acc
                    done
                  done
                done;
                c)
          in
          klib_write rt lib.kl_out cvals
      | _ ->
          raise
            (F
               (Invalid_graph
                  (Printf.sprintf "batched matmul node %d: incompatible shapes" lib.kl_nid))))
  | Node.Reduce (op, axes) ->
      let bi, ioffs, dims = klib_read rt lib.kl_a in
      let ndims = List.length dims in
      List.iter
        (fun ax ->
          if ax < 0 || ax >= ndims then
            raise
              (F (Invalid_graph (Printf.sprintf "reduce node %d: bad axis %d" lib.kl_nid ax))))
        axes;
      tick rt ~cost:(List.fold_left ( * ) 1 dims);
      let dims_arr = Array.of_list dims in
      let keep = List.filter (fun d -> not (List.mem d axes)) (List.init ndims Fun.id) in
      let out_dims = List.map (fun d -> dims_arr.(d)) keep in
      let out_n = List.fold_left ( * ) 1 out_dims in
      let total = Array.fold_left ( * ) 1 dims_arr in
      let ovals =
        Array.init nl (fun l ->
            let input = gather_lane bi ioffs l nl in
            let out = Array.make out_n (Memlet.wcr_identity op) in
            let idx = Array.make ndims 0 in
            for flat = 0 to total - 1 do
              let rem = ref flat in
              for d = ndims - 1 downto 0 do
                idx.(d) <- !rem mod dims_arr.(d);
                rem := !rem / dims_arr.(d)
              done;
              let oflat = List.fold_left (fun acc d -> (acc * dims_arr.(d)) + idx.(d)) 0 keep in
              out.(oflat) <- Memlet.apply_wcr op out.(oflat) input.(flat)
            done;
            out)
      in
      klib_write rt lib.kl_out ovals

(* ------------------------------------------------------------------ *)
(* Copies                                                              *)
(* ------------------------------------------------------------------ *)

type kcopy =
  | KCopy_missing_desc  (* dst container has no descriptor: Not_found, verbatim *)
  | KCopy of {
      kcp_src : kbref;
      kcp_ssub : klsub;
      kcp_dst : kbref;
      kcp_dsub : klsub;
      kcp_wcr : Memlet.wcr option;
      kcp_ctx : string;
    }

let exec_kcopy rt = function
  | KCopy_missing_desc -> raise Not_found
  | KCopy { kcp_src; kcp_ssub; kcp_dst; kcp_dsub; kcp_wcr; kcp_ctx } -> (
      let nl = rt.nl in
      let sb = kgetbuf rt kcp_src in
      let db = kgetbuf rt kcp_dst in
      let scs = kconcretize_sub rt kcp_ssub in
      let dcs = kconcretize_sub rt kcp_dsub in
      let svol = subset_volume scs in
      let soffs = try offsets_of_sub sb scs with e -> raise (oob_fault kcp_ctx e) in
      let len = max 1 svol in
      tick rt ~cost:(max 1 (len / 64));
      let k = wpatch rt in
      let dt = db.kb_desc.Graph.dtype in
      let dvol = max 1 (subset_volume dcs) in
      if len <> dvol then
        invalid_arg
          (Printf.sprintf "Value.%s: %d values for volume-%d subset of %s"
             (match kcp_wcr with None -> "write_subset" | Some _ -> "accumulate_subset")
             len dvol db.kb_name);
      if subset_volume dcs = 0 then ()
      else
        let doffs = try offsets_of_sub db dcs with e -> raise (oob_fault kcp_ctx e) in
        let vals = Array.make len 0. in
        for l = 0 to nl - 1 do
          (* materialize this lane's reads before its writes — overlapping
             src/dst subsets must observe pre-copy values *)
          if svol = 0 then vals.(0) <- 0.
          else
            for i = 0 to len - 1 do
              vals.(i) <- Bigarray.Array1.unsafe_get sb.kb_data ((soffs.(i) * nl) + l)
            done;
          match kcp_wcr with
          | None ->
              for i = 0 to len - 1 do
                let x = if i = 0 then apply_patch k vals.(0) else vals.(i) in
                Bigarray.Array1.unsafe_set db.kb_data ((doffs.(i) * nl) + l) (Value.cast dt x)
              done
          | Some wc ->
              for i = 0 to len - 1 do
                let x = if i = 0 then apply_patch k vals.(0) else vals.(i) in
                let old = Bigarray.Array1.unsafe_get db.kb_data ((doffs.(i) * nl) + l) in
                Bigarray.Array1.unsafe_set db.kb_data ((doffs.(i) * nl) + l)
                  (Value.cast dt (Memlet.apply_wcr wc old x))
              done
        done)

(* ------------------------------------------------------------------ *)
(* Scope frames and program structure                                  *)
(* ------------------------------------------------------------------ *)

type kop = Kop_task of ktask | Kop_lib of klib | Kop_copies of kcopy array | Kop_map of kmap

and kmap = {
  km_nid : int;
  km_cov : int array;  (* coverage digests, indexed by Bool.to_int empty *)
  km_lranges : klrange array;
  km_pslots : int array;
  km_dmax : int;
  km_arity_ok : bool;
  km_body : kop array;
}

let rec exec_kop rt = function
  | Kop_task t -> exec_ktask rt t
  | Kop_lib l -> exec_klib rt l
  | Kop_copies cs -> Array.iter (exec_kcopy rt) cs
  | Kop_map m -> exec_kmap rt m

and exec_kmap rt (m : kmap) =
  (* map ranges never reach scalar containers, so they are uniform *)
  let cr =
    try Array.map (keval_range rt) m.km_lranges with
    | Symbolic.Expr.Unbound_symbol s ->
        raise (F (Runtime_error ("unbound symbol " ^ s ^ " in map range")))
    | Symbolic.Expr.Division_by_zero ->
        raise (F (Runtime_error "division by zero in map range"))
  in
  let empty = Array.for_all (fun r -> Symbolic.Subset.crange_count r = 0) cr in
  record_all rt m.km_cov.(Bool.to_int empty);
  let rec go d =
    if d = m.km_dmax then begin
      if m.km_arity_ok then Array.iter (exec_kop rt) m.km_body
      else
        raise
          (F (Invalid_graph (Printf.sprintf "map %d: params/ranges arity mismatch" m.km_nid)))
    end
    else begin
      let r = cr.(d) in
      let n = Symbolic.Subset.crange_count r in
      let pslot = m.km_pslots.(d) in
      for i = 0 to n - 1 do
        rt.params.(pslot) <- r.Symbolic.Subset.clo + (i * r.Symbolic.Subset.cstep);
        go (d + 1)
      done
    end
  in
  go 0

type kedge = {
  ke_cov : int;
  ke_cond : kcond;
  ke_assigns : (int * kexpr) array;  (* dynamic slot, lowered rhs *)
  ke_dst : int;  (* position in k_states *)
}

type kstate = { ks_cov : int; ks_ops : kop array; ks_edges : kedge array }
type bufspec = { b_name : string; b_desc : Graph.datadesc; b_shape : int array }

type t = {
  k_bufs : bufspec array;
  k_buf_idx : (string, int) Hashtbl.t;
  k_nparams : int;
  k_ndyn : int;
  k_dyn_init : (int * int) array;
  k_states : kstate array;
  k_start : int;  (* position in k_states, -1 when the graph has no start *)
  k_headers : bool array;  (* loop headers, by position in k_states *)
}

(* Every rhs is evaluated uniformly (per-lane compare when it can see scalar
   containers) against the pre-edge environment before the commit, exactly as
   Plan.run_edge. *)
let run_kedge rt (e : kedge) =
  record_all rt e.ke_cov;
  let n = Array.length e.ke_assigns in
  let vals = Array.make n 0 in
  for i = 0 to n - 1 do
    let _, kx = e.ke_assigns.(i) in
    tick rt;
    vals.(i) <-
      (try ueval rt kx with
      | Symbolic.Expr.Unbound_symbol s -> raise (F (Runtime_error ("unbound symbol " ^ s)))
      | Symbolic.Expr.Division_by_zero ->
          raise (F (Runtime_error "division by zero in symbolic expression")))
  done;
  for i = 0 to n - 1 do
    let slot, _ = e.ke_assigns.(i) in
    rt.dvals.(slot) <- vals.(i);
    rt.dset.(slot) <- true
  done;
  e.ke_dst

(* Snapshots cover every lane: a batch is periodic when all its lanes are,
   and lockstep keeps positions, symbols and counters uniform across them. *)
let period_store =
  {
    Period.length = (fun b -> Bigarray.Array1.dim b.kb_data);
    save =
      (fun b s ->
        for i = 0 to Array.length s - 1 do
          Array.unsafe_set s i (Bigarray.Array1.unsafe_get b.kb_data i)
        done);
    same =
      (fun b s ->
        let n = Array.length s in
        let rec go i =
          i >= n
          || Period.same_bits (Bigarray.Array1.unsafe_get b.kb_data i) (Array.unsafe_get s i)
             && go (i + 1)
        in
        go 0);
  }

let exec_kprogram (t : t) rt =
  if t.k_start >= 0 then begin
    let period =
      Period.create rt.cfg period_store ~header:t.k_headers ~bufs:rt.kbufs ~dvals:rt.dvals
        ~dset:rt.dset
    in
    let current = ref t.k_start in
    while !current >= 0 do
      let sp = t.k_states.(!current) in
      (match period with
      | Some d -> rt.steps <- Period.enter d ~pos:!current ~steps:rt.steps
      | None -> ());
      tick rt;
      record_all rt sp.ks_cov;
      Array.iter (exec_kop rt) sp.ks_ops;
      let rec find i =
        if i >= Array.length sp.ks_edges then -1
        else if
          try ueval_cond rt sp.ks_edges.(i).ke_cond
          with Symbolic.Expr.Unbound_symbol s ->
            raise (F (Runtime_error ("unbound symbol " ^ s ^ " in interstate condition")))
        then i
        else find (i + 1)
      in
      let next = find 0 in
      if next < 0 then current := -1 else current := run_kedge rt sp.ks_edges.(next)
    done
  end

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let kbref cv name =
  match Hashtbl.find_opt cv.buf_idx name with Some i -> KBok i | None -> KBmissing name

let kgpu_fault cv sc nid =
  List.find_map
    (fun (e : State.edge) ->
      match e.memlet with
      | Some (m : Memlet.t) -> (
          match Graph.container_opt cv.cg m.data with
          | Some d when d.storage = Graph.Host ->
              Some
                (Invalid_graph
                   (Printf.sprintf "GPU-scheduled code accesses host container %s" m.data))
          | _ -> None)
      | None -> None)
    (Tree.ins_of sc nid @ Tree.outs_of sc nid)

(* Expression -> instruction emission. Returns the reversed instruction list
   and the result register. Operand order matches the reference closures:
   a binary node's right operand is emitted (hence evaluated) first. *)
let klower_tcode cv sparams ~nid ~visible ~fresh expr =
  let rec lo acc e =
    match e with
    | Tcode.Fconst f ->
        let r = fresh () in
        (Iconst (r, f) :: acc, r)
    | Tcode.Ref s -> (
        match Hashtbl.find_opt visible s with
        | Some i -> (acc, i)
        | None -> (
            match List.assoc_opt s sparams with
            | Some slot ->
                let r = fresh () in
                (Iparam (r, slot) :: acc, r)
            | None -> (
                let unbound =
                  Invalid_graph (Printf.sprintf "tasklet %d: unbound ref %s" nid s)
                in
                match Hashtbl.find_opt cv.dyn_idx s with
                | Some i ->
                    let r = fresh () in
                    (Idyn (r, i, unbound) :: acc, r)
                | None -> (
                    match Symbolic.Expr.Env.find_opt s cv.static with
                    | Some v ->
                        let r = fresh () in
                        (Iconst (r, float_of_int v) :: acc, r)
                    | None ->
                        let r = fresh () in
                        (Ifail unbound :: acc, r)))))
    | Tcode.Bin (op, a, b) ->
        let acc, rb = lo acc b in
        let acc, ra = lo acc a in
        let r = fresh () in
        (Ibin (op, r, ra, rb) :: acc, r)
    | Tcode.Un (op, a) ->
        let acc, ra = lo acc a in
        let r = fresh () in
        (Iun (op, r, ra) :: acc, r)
    | Tcode.Cmp (op, a, b) ->
        let acc, rb = lo acc b in
        let acc, ra = lo acc a in
        let r = fresh () in
        (Icmp (op, r, ra, rb) :: acc, r)
    | Tcode.Select (c, a, b) ->
        let acc, rc = lo acc c in
        let r = fresh () in
        let ta, rt_ = lo [] a in
        let ea, re_ = lo [] b in
        let s_then = Array.of_list (List.rev (Imov (r, rt_) :: ta)) in
        let s_else = Array.of_list (List.rev (Imov (r, re_) :: ea)) in
        (Isel { s_cond = rc; s_then; s_else } :: acc, r)
  in
  lo [] expr

let klower_tasklet cv sc sid ~gpu sparams nid (code : Tcode.t) =
  let host_fault = if gpu then kgpu_fault cv sc nid else None in
  let slot_of = Hashtbl.create 8 in
  let nslots = ref 0 in
  let slot name =
    match Hashtbl.find_opt slot_of name with
    | Some i -> i
    | None ->
        let i = !nslots in
        incr nslots;
        Hashtbl.replace slot_of name i;
        i
  in
  let in_edges =
    List.filter_map
      (fun (e : State.edge) ->
        match (e.dst_conn, e.memlet) with
        | Some conn, Some m -> Some (conn, (m : Memlet.t))
        | _ -> None)
      (Tree.ins_of sc nid)
  in
  let reads =
    Array.of_list
      (List.map
         (fun (conn, (m : Memlet.t)) ->
           {
             krd_buf = kbref cv m.data;
             krd_sub = klower_subset cv sparams ~point:true m.subset;
             krd_slot = slot conn;
             krd_ctx = Printf.sprintf "tasklet %d input %s" nid conn;
           })
         in_edges)
  in
  List.iter (fun (o, _) -> ignore (slot o)) code.assignments;
  let nregs = ref !nslots in
  let fresh () =
    let r = !nregs in
    incr nregs;
    r
  in
  let sel_digests =
    Array.init
      (2 * Tcode.num_selects code)
      (fun i ->
        cov_digest (Cov_select { state = sid; node = nid; site = i / 2; taken = i mod 2 = 1 }))
  in
  let visible = Hashtbl.create 8 in
  List.iter (fun (conn, _) -> Hashtbl.replace visible conn (Hashtbl.find slot_of conn)) in_edges;
  let prog_rev = ref [] in
  List.iter
    (fun (o, expr) ->
      let acc, r = klower_tcode cv sparams ~nid ~visible ~fresh expr in
      let s = Hashtbl.find slot_of o in
      prog_rev := Imov (s, r) :: (acc @ !prog_rev);
      Hashtbl.replace visible o s)
    code.assignments;
  let targets = Hashtbl.create 8 in
  List.iter (fun (o, _) -> Hashtbl.replace targets o ()) code.assignments;
  let writes =
    Array.of_list
      (List.filter_map
         (fun (e : State.edge) ->
           match (e.src_conn, e.memlet) with
           | Some conn, Some (m : Memlet.t) ->
               Some
                 {
                   kwr_src =
                     (if Hashtbl.mem targets conn then KWslot (Hashtbl.find slot_of conn)
                      else
                        KWmissing
                          (Printf.sprintf "tasklet %d: no value for connector %s" nid conn));
                   kwr_buf = kbref cv m.data;
                   kwr_sub = klower_subset cv sparams ~point:true m.subset;
                   kwr_wcr = m.wcr;
                   kwr_ctx = Printf.sprintf "tasklet %d output %s" nid conn;
                 }
           | _ -> None)
         (Tree.outs_of sc nid))
  in
  {
    k_host_fault = host_fault;
    k_reads = reads;
    k_prog = Array.of_list (List.rev !prog_rev);
    k_writes = writes;
    k_nregs = !nregs;
    k_regs = [||];
    k_sel_digests = sel_digests;
    k_sid = sid;
    k_nid = nid;
  }

let klib_conn cv sparams nid ~dir conn (m : Memlet.t) =
  KCok
    {
      kc_buf = kbref cv m.data;
      kc_sub = klower_subset cv sparams ~point:false m.subset;
      kc_wcr = m.wcr;
      kc_ctx = Printf.sprintf "library node %d %s %s" nid dir conn;
    }

let klower_library cv sc ~gpu sparams nid (kind : Node.lib_kind) =
  let host_fault = if gpu then kgpu_fault cv sc nid else None in
  let find_in conn =
    match
      List.find_opt
        (fun (e : State.edge) -> e.dst_conn = Some conn && e.memlet <> None)
        (Tree.ins_of sc nid)
    with
    | Some e -> klib_conn cv sparams nid ~dir:"input" conn (Option.get e.memlet)
    | None -> KCmissing (Printf.sprintf "library node %d: missing input %s" nid conn)
  in
  let find_out conn =
    match
      List.find_opt
        (fun (e : State.edge) -> e.src_conn = Some conn && e.memlet <> None)
        (Tree.outs_of sc nid)
    with
    | Some e -> klib_conn cv sparams nid ~dir:"output" conn (Option.get e.memlet)
    | None -> KCmissing (Printf.sprintf "library node %d: missing output %s" nid conn)
  in
  match kind with
  | Node.Mat_mul | Node.Batched_mat_mul ->
      {
        kl_nid = nid;
        kl_kind = kind;
        kl_host_fault = host_fault;
        kl_a = find_in "A";
        kl_b = Some (find_in "B");
        kl_out = find_out "C";
      }
  | Node.Reduce _ ->
      {
        kl_nid = nid;
        kl_kind = kind;
        kl_host_fault = host_fault;
        kl_a = find_in "in";
        kl_b = None;
        kl_out = find_out "out";
      }

let klower_copy cv sparams ~dst_data (src_m : Memlet.t) (dst_memlet : Memlet.t option) =
  let dst_m =
    match dst_memlet with
    | Some m -> Some m
    | None -> (
        match Graph.container_opt cv.cg dst_data with
        | Some (desc : Graph.datadesc) ->
            Some (Memlet.make dst_data (Symbolic.Subset.full desc.shape))
        | None -> None)
  in
  match dst_m with
  | None -> KCopy_missing_desc
  | Some (dst_m : Memlet.t) ->
      KCopy
        {
          kcp_src = kbref cv src_m.data;
          kcp_ssub = klower_subset cv sparams ~point:false src_m.subset;
          kcp_dst = kbref cv dst_m.data;
          kcp_dsub = klower_subset cv sparams ~point:false dst_m.subset;
          kcp_wcr = dst_m.wcr;
          kcp_ctx = Printf.sprintf "copy %s -> %s" src_m.data dst_m.data;
        }

let rec klower_members cv sc sid ~gpu sparams entry =
  let st = sc.Tree.st in
  Array.of_list
    (List.filter_map
       (fun nid ->
         match State.node st nid with
         | Node.Access _ ->
             let copies =
               List.filter_map
                 (fun (e : State.edge) ->
                   match (State.node_opt st e.dst, e.memlet) with
                   | Some (Node.Access d), Some src_m ->
                       Some (klower_copy cv sparams ~dst_data:d src_m e.dst_memlet)
                   | _ -> None)
                 (Tree.outs_of sc nid)
             in
             if copies = [] then None else Some (Kop_copies (Array.of_list copies))
         | Node.Tasklet { code; _ } ->
             Some (Kop_task (klower_tasklet cv sc sid ~gpu sparams nid code))
         | Node.Library { kind; _ } ->
             Some (Kop_lib (klower_library cv sc ~gpu sparams nid kind))
         | Node.Map_entry info -> Some (Kop_map (klower_map cv sc sid sparams nid info))
         | Node.Map_exit _ -> None)
       (Tree.direct_members sc entry))

and klower_map cv sc sid sparams nid (info : Node.map_info) =
  let gpu = info.schedule = Node.Gpu_device in
  let lranges = Array.of_list (List.map (klower_range cv sparams) info.ranges) in
  let pslots =
    Array.of_list
      (List.map
         (fun _ ->
           let s = cv.nparams in
           cv.nparams <- s + 1;
           s)
         info.params)
  in
  let np = List.length info.params and nr = List.length info.ranges in
  let inner = List.rev (List.map2 (fun p s -> (p, s)) info.params (Array.to_list pslots)) in
  let body = klower_members cv sc sid ~gpu (inner @ sparams) (Some nid) in
  {
    km_nid = nid;
    km_cov =
      [|
        cov_digest (Cov_map { state = sid; node = nid; empty = false });
        cov_digest (Cov_map { state = sid; node = nid; empty = true });
      |];
    km_lranges = lranges;
    km_pslots = pslots;
    km_dmax = min np nr;
    km_arity_ok = np = nr;
    km_body = body;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compile g ~symbols =
  match Validate.check g with
  | e :: _ -> Error (Invalid_graph (Format.asprintf "%a" Validate.pp_error e))
  | [] -> (
      let env0 = Symbolic.Expr.Env.of_list symbols in
      let dyn_idx = Hashtbl.create 8 in
      List.iter
        (fun (e : Graph.istate_edge) ->
          List.iter
            (fun (sym, _) ->
              if not (Hashtbl.mem dyn_idx sym) then
                Hashtbl.add dyn_idx sym (Hashtbl.length dyn_idx))
            e.assigns)
        (Graph.istate_edges g);
      let static = Symbolic.Expr.Env.filter (fun s _ -> not (Hashtbl.mem dyn_idx s)) env0 in
      let dyn_init =
        Array.of_list
          (Hashtbl.fold
             (fun s i acc ->
               match Symbolic.Expr.Env.find_opt s env0 with
               | Some v -> (i, v) :: acc
               | None -> acc)
             dyn_idx [])
      in
      try
        let buf_idx = Hashtbl.create 16 in
        let scalar_idx = Hashtbl.create 8 in
        let bufs =
          Array.of_list
            (List.mapi
               (fun i (name, (desc : Graph.datadesc)) ->
                 Hashtbl.replace buf_idx name i;
                 if desc.shape = [] then Hashtbl.replace scalar_idx name i;
                 let shape =
                   try Value.concretize_shape env0 name desc with
                   | Invalid_argument msg -> raise (F (Invalid_graph msg))
                   | Symbolic.Expr.Unbound_symbol s ->
                       raise (F (Runtime_error ("unbound symbol " ^ s ^ " in shape of " ^ name)))
                 in
                 { b_name = name; b_desc = desc; b_shape = shape })
               (Graph.containers g))
        in
        let cv = { cg = g; buf_idx; scalar_idx; dyn_idx; static; nparams = 0 } in
        let states = Graph.states g in
        let pos_of = Hashtbl.create 8 in
        List.iteri (fun i (sid, _) -> Hashtbl.replace pos_of sid i) states;
        let state_plans =
          Array.of_list
            (List.map
               (fun (sid, st) ->
                 let sc = Tree.build_sctx st in
                 let ops = klower_members cv sc sid ~gpu:false [] None in
                 let edges =
                   Array.of_list
                     (List.map
                        (fun (e : Graph.istate_edge) ->
                          {
                            ke_cov = cov_digest (Cov_iedge e.ie_id);
                            ke_cond = klower_cond cv e.cond;
                            ke_assigns =
                              Array.of_list
                                (List.map
                                   (fun (sym, rhs) ->
                                     ( Hashtbl.find dyn_idx sym,
                                       klower_expr cv [] ~interstate:true rhs ))
                                   e.assigns);
                            ke_dst = Hashtbl.find pos_of e.dst;
                          })
                        (Graph.out_istate_edges g sid))
                 in
                 { ks_cov = cov_digest (Cov_state sid); ks_ops = ops; ks_edges = edges })
               states)
        in
        let start = Graph.start_state g in
        let start = if start < 0 then -1 else Hashtbl.find pos_of start in
        Ok
          {
            k_bufs = bufs;
            k_buf_idx = buf_idx;
            k_nparams = cv.nparams;
            k_ndyn = Hashtbl.length dyn_idx;
            k_dyn_init = dyn_init;
            k_states = state_plans;
            k_start = start;
            k_headers =
              Period.headers ~start
                (Array.map (fun ks -> Array.map (fun e -> e.ke_dst) ks.ks_edges) state_plans);
          }
      with F f -> Error f)

let make_rt config (t : t) nl =
  let kbufs =
    Array.map
      (fun bs ->
        (* the width-1 prototype carries alloc_shaped's exact fill (zeros or
           deterministic garbage), broadcast across lanes *)
        let proto =
          Value.alloc_shaped ~garbage_seed:config.garbage_seed bs.b_name bs.b_desc bs.b_shape
        in
        let n = Array.length proto.Value.data in
        let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 (n * nl)) in
        for e = 0 to n - 1 do
          let v = proto.Value.data.(e) in
          for l = 0 to nl - 1 do
            Bigarray.Array1.unsafe_set data ((e * nl) + l) v
          done
        done;
        { kb_name = bs.b_name; kb_desc = bs.b_desc; kb_shape = bs.b_shape; kb_nelem = n;
          kb_data = data })
      t.k_bufs
  in
  let rt =
    {
      cfg = config;
      nl;
      kbufs;
      params = Array.make (max 1 t.k_nparams) 0;
      dvals = Array.make (max 1 t.k_ndyn) 0;
      dset = Array.make (max 1 t.k_ndyn) false;
      steps = 0;
      writes = 0;
      subsets = 0;
      covs = Array.init nl (fun _ -> Hashtbl.create 64);
      sel = Array.make nl 0;
      lanes0 = Array.init nl Fun.id;
    }
  in
  Array.iter
    (fun (i, v) ->
      rt.dvals.(i) <- v;
      rt.dset.(i) <- true)
    t.k_dyn_init;
  rt

let fill_inputs rt (t : t) inputs_arr =
  let nl = rt.nl in
  Array.iteri
    (fun l inputs ->
      List.iter
        (fun (name, values) ->
          match Hashtbl.find_opt t.k_buf_idx name with
          | None -> raise (F (Runtime_error ("input for undeclared container " ^ name)))
          | Some i ->
              let b = rt.kbufs.(i) in
              if Array.length values <> b.kb_nelem then
                raise
                  (F
                     (Runtime_error
                        (Printf.sprintf "input %s has %d elements, expected %d" name
                           (Array.length values) b.kb_nelem)));
              for e = 0 to b.kb_nelem - 1 do
                Bigarray.Array1.unsafe_set b.kb_data ((e * nl) + l) values.(e)
              done)
        inputs)
    inputs_arr

let finalize rt l =
  let nl = rt.nl in
  let mem : Value.t = Hashtbl.create 16 in
  Array.iter
    (fun (b : kbuffer) ->
      let data =
        Array.init b.kb_nelem (fun e -> Bigarray.Array1.unsafe_get b.kb_data ((e * nl) + l))
      in
      Hashtbl.replace mem b.kb_name
        { Value.name = b.kb_name; desc = b.kb_desc; cshape = b.kb_shape; data })
    rt.kbufs;
  let coverage = Hashtbl.fold (fun k () acc -> k :: acc) rt.covs.(l) [] |> List.sort compare in
  { memory = mem; coverage; steps = rt.steps; writes = rt.writes; subsets = rt.subsets }

(* Width 1: lockstep is trivial, and the exception mapping is exactly
   Plan.execute's (Not_found and interstate Division_by_zero escape raw). *)
let run_width1 config t inputs =
  let rt = make_rt config t 1 in
  try
    fill_inputs rt t [| inputs |];
    exec_kprogram t rt;
    Ok (finalize rt 0)
  with
  | F fault -> Error fault
  | Invalid_argument msg -> Error (Runtime_error msg)
  | Stack_overflow -> Error (Hang { steps = rt.steps })

let execute_batch ?(config = default_config) t ~inputs =
  let nl = Array.length inputs in
  if nl = 0 then [||]
  else if nl = 1 then [| run_width1 config t inputs.(0) |]
  else
    let attempt () =
      let rt = make_rt config t nl in
      fill_inputs rt t inputs;
      exec_kprogram t rt;
      Array.init nl (fun l -> Ok (finalize rt l))
    in
    match attempt () with
    | res -> res
    | exception _ ->
        (* any fault or lockstep divergence: replay every lane at width 1,
           where semantics are the serial plan path's by construction *)
        Array.map (fun inp -> run_width1 config t inp) inputs

let execute ?(config = default_config) t ~inputs = run_width1 config t inputs

(* ------------------------------------------------------------------ *)
(* Kernel cache                                                        *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type kernel = t

  type t = {
    capacity : int;
    tbl : (string * (string * int) list, (kernel, fault) result) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(capacity = 64) () =
    { capacity = max 1 capacity; tbl = Hashtbl.create 16; hits = 0; misses = 0 }

  let digest_of g = Digest.to_hex (Digest.string (Serialize.to_string g))

  let compile ?digest c g ~symbols =
    let d = match digest with Some d -> d | None -> digest_of g in
    let key = (d, List.sort compare symbols) in
    match Hashtbl.find_opt c.tbl key with
    | Some r ->
        c.hits <- c.hits + 1;
        r
    | None ->
        c.misses <- c.misses + 1;
        let r = compile g ~symbols in
        if Hashtbl.length c.tbl >= c.capacity then Hashtbl.reset c.tbl;
        Hashtbl.add c.tbl key r;
        r

  let stats c = (c.hits, c.misses)
end
