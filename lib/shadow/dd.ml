type t = { hi : float; lo : float }

let zero = { hi = 0.0; lo = 0.0 }
let one = { hi = 1.0; lo = 0.0 }
let of_float x = { hi = x; lo = 0.0 }
let to_float { hi; lo } = hi +. lo

(* Knuth's TwoSum: 6 flops, no magnitude precondition. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  let err = (a -. (s -. bb)) +. (b -. bb) in
  (s, err)

(* Dekker's FastTwoSum: requires |a| >= |b| (or either zero). *)
let quick_two_sum a b =
  let s = a +. b in
  let err = b -. (s -. a) in
  (s, err)

let make hi lo =
  let s, e = two_sum hi lo in
  { hi = s; lo = e }

(* Dekker splitting constant 2^27 + 1; the guard keeps splitter *. a
   finite for |a| up to max_float (scale down by 2^28, split, scale
   halves back up — both halves stay representable in 26 bits). *)
let splitter = 134217729.0
let split_threshold = 6.696928794914171e299 (* 2^996 *)

let split a =
  if Float.abs a > split_threshold then begin
    let a' = a *. 3.7252902984619140625e-09 (* 2^-28 *) in
    let t = splitter *. a' in
    let ahi = t -. (t -. a') in
    let alo = a' -. ahi in
    (ahi *. 268435456.0, alo *. 268435456.0 (* 2^28 *))
  end
  else begin
    let t = splitter *. a in
    let ahi = t -. (t -. a) in
    let alo = a -. ahi in
    (ahi, alo)
  end

let two_prod a b =
  let p = a *. b in
  let ahi, alo = split a in
  let bhi, blo = split b in
  let err = ((ahi *. bhi -. p) +. (ahi *. blo) +. (alo *. bhi)) +. (alo *. blo) in
  (p, err)

let neg { hi; lo } = { hi = -.hi; lo = -.lo }
let abs d = if d.hi < 0.0 || (d.hi = 0.0 && d.lo < 0.0) then neg d else d

(* The kernels below spell [two_sum], [quick_two_sum] and [two_prod]
   out inline, flop for flop, so that only the result record is
   allocated: a call to the tuple-returning helpers boxes both halves
   and the tuple. Branches that yield two floats go through local refs,
   which ocamlopt keeps unboxed. *)

(* [two_prod a b]'s error term, with [p = a *. b] computed by the
   caller. *)
let two_prod_err a b p =
  let ahi = ref 0.0 and alo = ref 0.0 in
  if Float.abs a > split_threshold then begin
    let a' = a *. 3.7252902984619140625e-09 in
    let t = splitter *. a' in
    let h = t -. (t -. a') in
    ahi := h *. 268435456.0;
    alo := (a' -. h) *. 268435456.0
  end
  else begin
    let t = splitter *. a in
    let h = t -. (t -. a) in
    ahi := h;
    alo := a -. h
  end;
  let bhi = ref 0.0 and blo = ref 0.0 in
  if Float.abs b > split_threshold then begin
    let b' = b *. 3.7252902984619140625e-09 in
    let t = splitter *. b' in
    let h = t -. (t -. b') in
    bhi := h *. 268435456.0;
    blo := (b' -. h) *. 268435456.0
  end
  else begin
    let t = splitter *. b in
    let h = t -. (t -. b) in
    bhi := h;
    blo := b -. h
  end;
  let ahi = !ahi and alo = !alo and bhi = !bhi and blo = !blo in
  ((ahi *. bhi -. p) +. (ahi *. blo) +. (alo *. bhi)) +. (alo *. blo)
[@@inline]

(* QD-style accurate addition: TwoSum both components, then fold the
   low-order parts back in with two renormalization passes. *)
let add_parts ah al bh bl =
  let s1 = ah +. bh in
  let bb = s1 -. ah in
  let s2 = (ah -. (s1 -. bb)) +. (bh -. bb) in
  let t1 = al +. bl in
  let tb = t1 -. al in
  let t2 = (al -. (t1 -. tb)) +. (bl -. tb) in
  let s2 = s2 +. t1 in
  let u1 = s1 +. s2 in
  let s2 = s2 -. (u1 -. s1) in
  let s2 = s2 +. t2 in
  let v1 = u1 +. s2 in
  { hi = v1; lo = s2 -. (v1 -. u1) }
[@@inline]

let add a b = add_parts a.hi a.lo b.hi b.lo
let sub a b = add_parts a.hi a.lo (-.b.hi) (-.b.lo)

let add_float a b =
  let ah = a.hi in
  let s1 = ah +. b in
  let bb = s1 -. ah in
  let s2 = (ah -. (s1 -. bb)) +. (b -. bb) in
  let s2 = s2 +. a.lo in
  let u1 = s1 +. s2 in
  { hi = u1; lo = s2 -. (u1 -. s1) }

let mul a b =
  let ah = a.hi and bh = b.hi in
  let p1 = ah *. bh in
  let p2 = two_prod_err ah bh p1 in
  let p2 = p2 +. (ah *. b.lo) +. (a.lo *. bh) in
  let u1 = p1 +. p2 in
  { hi = u1; lo = p2 -. (u1 -. p1) }

let mul_float a b =
  let ah = a.hi in
  let p1 = ah *. b in
  let p2 = two_prod_err ah b p1 in
  let p2 = p2 +. (a.lo *. b) in
  let u1 = p1 +. p2 in
  { hi = u1; lo = p2 -. (u1 -. p1) }

(* Long division: binary64 seed quotient, two exact-residual correction
   terms, one final residual digit. *)
let div a b =
  let q1 = a.hi /. b.hi in
  if not (Float.is_finite q1) || b.hi = 0.0 then of_float q1
  else begin
    let r = sub a (mul_float b q1) in
    let q2 = r.hi /. b.hi in
    let r = sub r (mul_float b q2) in
    let q3 = r.hi /. b.hi in
    let s = q1 +. q2 in
    add_float { hi = s; lo = q2 -. (s -. q1) } q3
  end

(* Karp's trick: with x ~ 1/sqrt(a) in binary64 and ax = fl(a.hi * x),
   sqrt(a) ~ ax + (a - ax^2) * x / 2; the residual a - ax^2 is computed
   exactly in dd, giving a fully accurate dd square root from one
   Newton-style correction. *)
let sqrt a =
  if a.hi = 0.0 then { hi = Float.sqrt a.hi; lo = 0.0 } (* keeps -0. *)
  else if a.hi < 0.0 then of_float Float.nan
  else if not (Float.is_finite a.hi) then of_float a.hi
  else begin
    let x = 1.0 /. Float.sqrt a.hi in
    let ax = a.hi *. x in
    let sq = ax *. ax in
    let sq_err = two_prod_err ax ax sq +. (ax *. 0.0) +. (0.0 *. ax) in
    let s = sq +. sq_err in
    let residual = sub a { hi = s; lo = sq_err -. (s -. sq) } in
    let c = mul_float residual (x *. 0.5) in
    add_parts ax 0.0 c.hi c.lo
  end

let compare a b =
  let c = Float.compare a.hi b.hi in
  if c <> 0 then c else Float.compare a.lo b.lo

let equal a b = a.hi = b.hi && a.lo = b.lo
let is_nan d = Float.is_nan d.hi || Float.is_nan d.lo
let is_finite d = Float.is_finite d.hi && Float.is_finite d.lo

let sign d =
  if is_nan d then Float.nan
  else if d.hi > 0.0 || (d.hi = 0.0 && d.lo > 0.0) then 1.0
  else if d.hi < 0.0 || (d.hi = 0.0 && d.lo < 0.0) then -1.0
  else 0.0

(* Exact for |n| < 2^106: split the int into a high part that is exact
   in binary64 and the remainder. On 63-bit OCaml ints the first
   component is exact only up to 2^53, so peel off the low 30 bits. *)
let of_int n =
  if Stdlib.abs n < 0x20000000000000 (* 2^53 *) then of_float (float_of_int n)
  else begin
    let low = n land 0x3FFFFFFF in
    let high = n - low in
    add_float (of_float (float_of_int high)) (float_of_int low)
  end

let floor d =
  let fhi = Float.floor d.hi in
  if fhi = d.hi then
    (* hi is integral: the fractional information lives in lo *)
    let flo = Float.floor d.lo in
    make fhi flo
  else { hi = fhi; lo = 0.0 }

let ceil d =
  let chi = Float.ceil d.hi in
  if chi = d.hi then
    let clo = Float.ceil d.lo in
    make chi clo
  else { hi = chi; lo = 0.0 }

let pp fmt d = Format.fprintf fmt "(%.17g + %.17g)" d.hi d.lo
let to_string d = Format.asprintf "%a" pp d
