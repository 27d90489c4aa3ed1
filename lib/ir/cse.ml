open Ast

let is_private_call name =
  String.length name >= 2 && name.[0] = '_' && name.[1] = '_'

(* Pure float expression worth naming: contains a real intrinsic call or
   is at least [size_threshold] nodes. *)
let size_threshold = 5

(* An expression with what the pass needs to know of it, computed
   bottom-up once: [nameable] marks a worthwhile pure float
   subexpression. The counting pass fills in the mutable fields where it
   visits a nameable node: the [fact] it is, whether that fact was
   already available ([hit]), and, on the whole right-hand side of a
   scalar store, whether the stored variable holds it ([held]). *)
type node = {
  e : expr;
  kids : node list;
  nameable : bool;
  mutable fact : int;
  mutable hit : bool;
  mutable held : bool;
}

module Emap = Map.Make (struct
  type t = expr

  let compare = compare
end)

(* An available value: [id] numbers it in visiting order; it holds
   while every variable in [deps] (what it reads, and the assigned
   variable holding it, if any) still has the recorded version. *)
type fact = { id : int; deps : (string * int) list }

let f64 = Sflt Cheffp_precision.Fp.F64

let cse_func ?builtins ?(prog = { funcs = [] }) ?(opaque = fun _ -> false) f =
  let builtins =
    match builtins with Some b -> b | None -> Builtins.create ()
  in
  let names = Rename.create () in
  Rename.reserve_func names f;

  let var_tys : (string, ty) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace var_tys p.pname p.pty) f.params;
  let lookup v = Hashtbl.find_opt var_tys v in
  let float_call name =
    match Builtins.find builtins name with
    | Some (sg, _) -> sg.Builtins.ret = Builtins.Kflt
    | None -> (
        match find_func prog name with
        | Some { ret = Some (Sflt _); _ } -> true
        | _ -> false)
  in
  (* The inner [annotate] also returns the node count, whether a real
     intrinsic or a private (double-underscore, runtime callback) call
     occurs, whether the value is a float and whether an opaque
     variable is read. The function typechecks, so the operands of an
     arithmetic operator share its kind. Expressions touching opaque
     (narrow-storage) variables are not nameable: naming them in a
     binary64 temporary would widen their static format and change
     Source-mode rounding of the surrounding operation. *)
  (* Temporaries are binary64 locals. When the caller makes every
     variable opaque (a narrow default format) they would round on
     store, so nothing is named then; a single overridden temporary name
     is skipped. *)
  let exact_temps = not (opaque "_cse") in
  let rec fresh_temp () =
    let t = Rename.fresh names "_cse" in
    if opaque t then fresh_temp () else t
  in
  let rec annotate e =
    let kids =
      match e with
      | Fconst _ | Iconst _ | Var _ -> []
      | Idx (_, i) | Unop (_, i) -> [ annotate i ]
      | Binop (_, a, b) -> [ annotate a; annotate b ]
      | Call (_, args) -> List.map annotate args
    in
    let size, call, priv, opq =
      List.fold_left
        (fun (n, c, p, o) (_, (n', c', p', _, o')) -> (n + n', c || c', p || p', o || o'))
        (1, false, false, false) kids
    in
    let scalar_float v = match lookup v with Some (Tscalar (Sflt _)) -> true | _ -> false in
    let call, priv, is_float, opq =
      match e with
      | Fconst _ -> (call, priv, true, opq)
      | Iconst _ | Unop (Not, _) | Binop ((Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _)
        ->
          (call, priv, false, opq)
      | Var v -> (call, priv, scalar_float v, opaque v)
      | Idx (a, _) ->
          ( call, priv,
            (match lookup a with Some (Tarr (Sflt _)) -> true | _ -> false),
            opq || opaque a )
      | Unop (Neg, _) | Binop ((Add | Sub | Mul | Div), _, _) ->
          let _, (_, _, _, fl, _) = List.hd kids in
          (call, priv, fl, opq)
      | Call (name, _) ->
          ( call || not (List.mem name [ "itof"; "select"; "sign" ]),
            priv || is_private_call name,
            float_call name,
            opq )
    in
    let nameable =
      exact_temps && (not priv) && (call || size >= size_threshold) && is_float && not opq
    in
    ( { e; kids = List.map fst kids; nameable; fact = -1; hit = false; held = false },
      (size, call, priv, is_float, opq) )
  in

  (* Both passes below walk the body in the same order. The counting
     pass annotates each expression, queues the annotation, tracks which
     values are available and records in the nodes what it found, and
     how often each fact is used. The naming pass replays those
     findings: every fact used at least twice gets a holder at its first
     use, and later uses read the holder. *)
  let uses : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let holders : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let shared id = Hashtbl.find uses id >= 2 in
  let annotated = Queue.create () in

  let next_id = ref 0 in
  let versions : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let version v = Option.value ~default:0 (Hashtbl.find_opt versions v) in
  let kill v = Hashtbl.replace versions v (version v + 1) in
  let avail = ref Emap.empty in
  let available e =
    match Emap.find_opt e !avail with
    | Some fact when List.for_all (fun (v, n) -> version v = n) fact.deps -> Some fact
    | _ -> None
  in
  let add (n : node) holder =
    let id = !next_id in
    incr next_id;
    let deps = List.map (fun v -> (v, version v)) (Option.to_list holder @ expr_vars [] n.e) in
    avail := Emap.add n.e { id; deps } !avail;
    Hashtbl.replace uses id 1;
    n.fact <- id
  in
  let rec count n =
    if not n.nameable then List.iter count n.kids
    else
      match available n.e with
      | Some fact ->
          n.fact <- fact.id;
          n.hit <- true;
          Hashtbl.replace uses fact.id (Hashtbl.find uses fact.id + 1)
      | None ->
          List.iter count n.kids;
          add n None
  in
  let counted e =
    let n = fst (annotate e) in
    Queue.push n annotated;
    count n;
    e
  in
  (* Right-hand side stored into scalar [v]: when [v] can hold the whole
     value, it does so instead of a temporary. *)
  let counted_store v e =
    let n = fst (annotate e) in
    Queue.push n annotated;
    if
      n.nameable && (not (opaque v))
      && lookup v = Some (Tscalar f64)
      && (not (List.mem v (expr_vars [] e)))
      && available e = None
    then begin
      List.iter count n.kids;
      kill v;
      add n (Some v);
      n.held <- true
    end
    else begin
      count n;
      kill v
    end;
    e
  in

  (* Declarations of the temporaries named while rewriting the current
     statement; they go right before it. *)
  let pending = ref [] in
  let rec rewrite n =
    if n.fact < 0 then children n
    else if n.hit then Var (Hashtbl.find holders n.fact)
    else
      let e' = children n in
      if shared n.fact then begin
        let t = fresh_temp () in
        Hashtbl.replace holders n.fact t;
        pending := Decl { name = t; dty = Dscalar f64; init = Some e' } :: !pending;
        Var t
      end
      else e'
  and children n =
    match (n.e, n.kids) with
    | (Fconst _ | Iconst _ | Var _), _ -> n.e
    | Idx (a, _), [ i ] -> Idx (a, rewrite i)
    | Unop (op, _), [ inner ] -> Unop (op, rewrite inner)
    | Binop (op, _, _), [ a; b ] ->
        let a = rewrite a in
        Binop (op, a, rewrite b)
    | Call (name, _), args -> Call (name, List.map rewrite args)
    | _ -> assert false
  in
  let rewritten _ = rewrite (Queue.pop annotated) in
  let rewritten_store v _ =
    let n = Queue.pop annotated in
    if n.held then begin
      let e' = children n in
      if shared n.fact then Hashtbl.replace holders n.fact v;
      e'
    end
    else rewrite n
  in

  (* The statement walk of both passes; [counting] selects the pass. *)
  let run ~counting body =
    let expr = if counting then counted else rewritten in
    let store = if counting then counted_store else rewritten_store in
    let kill v = if counting then kill v in
    let scope f =
      let before = !avail in
      let r = f () in
      avail := before;
      r
    in
    let rec stmt s =
      match s with
      | Decl ({ name; dty; init } as d) ->
          if counting then
            Hashtbl.replace var_tys name
              (match dty with Dscalar sc -> Tscalar sc | Darr (sc, _) -> Tarr sc);
          let init = Option.map (store name) init in
          if init = None then kill name;
          Decl { d with init }
      | Assign (Lvar v, e) -> Assign (Lvar v, store v e)
      | Assign (Lidx (a, i), e) ->
          let e = expr e in
          let i = expr i in
          kill a;
          Assign (Lidx (a, i), e)
      | If (c, a, b) ->
          (* Facts from before the [if] hold in both branches and after
             it, except those the branches' writes end (a write bumps a
             version for good); facts from inside a branch stay there. *)
          let c = expr c in
          let a = scope (fun () -> block a) in
          let b = scope (fun () -> block b) in
          If (c, a, b)
      | For ({ var; body; _ } as l) ->
          if counting then Hashtbl.replace var_tys var (Tscalar Sint);
          avail := Emap.empty;
          let body = block body in
          avail := Emap.empty;
          For { l with body }
      | While (c, body) ->
          avail := Emap.empty;
          let body = block body in
          avail := Emap.empty;
          While (c, body)
      | Return e -> Return (Option.map expr e)
      | Call_stmt (name, args) -> Call_stmt (name, List.map expr args)
      | Push _ -> s
      | Pop lv ->
          kill (lvalue_base lv);
          s
    and block stmts =
      List.concat_map
        (fun s ->
          let outer = !pending in
          pending := [];
          let s = stmt s in
          let named = List.rev !pending in
          pending := outer;
          named @ [ s ])
        stmts
    in
    block body
  in
  ignore (run ~counting:true f.body);
  { f with body = run ~counting:false f.body }
