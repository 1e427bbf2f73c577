(* Unified telemetry for the PASSv2 pipeline.

   Design constraints: no external dependencies (this sits below pass_core
   and simdisk in the library graph), deterministic behaviour (the repo's
   runs are reproducible simulations; percentile reservoirs must not use
   randomness), and cheap instrument updates (a counter bump is one field
   mutation). *)

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Histogram: exact count/sum/min/max plus a bounded sample reservoir for
   percentiles.  Determinism: when the buffer fills we drop every other
   sample and double the admission stride, so the reservoir remains an
   even systematic sample of the observation stream. *)
let reservoir_cap = 2048

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable samples : float array;
  mutable n_samples : int;
  mutable stride : int;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = { mutable instruments : (string * instrument) list (* newest first *) }

let create () = { instruments = [] }

(* Without a registry the instrument still counts; it is just not listed
   anywhere. *)
let register registry name i =
  match registry with
  | Some r -> r.instruments <- (name, i) :: r.instruments
  | None -> ()

let counter ?registry name =
  let c = { c = 0 } in
  register registry name (Counter c);
  c

let gauge ?registry name =
  let g = { g = 0. } in
  register registry name (Gauge g);
  g

let histogram ?registry name =
  let h =
    { h_count = 0; h_sum = 0.; h_min = 0.; h_max = 0.;
      samples = Array.make reservoir_cap 0.; n_samples = 0; stride = 1 }
  in
  register registry name (Histogram h);
  h

(* --- counters / gauges ----------------------------------------------------- *)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c
let set g v = g.g <- v
let gauge_value g = g.g

(* --- histograms ------------------------------------------------------------ *)

let observe h v =
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if (h.h_count - 1) mod h.stride = 0 then begin
    if h.n_samples >= Array.length h.samples then begin
      (* compact: keep even indices, double the stride *)
      let n = h.n_samples / 2 in
      for i = 0 to n - 1 do
        h.samples.(i) <- h.samples.(2 * i)
      done;
      h.n_samples <- n;
      h.stride <- h.stride * 2
    end;
    if (h.h_count - 1) mod h.stride = 0 then begin
      h.samples.(h.n_samples) <- v;
      h.n_samples <- h.n_samples + 1
    end
  end

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let empty_summary =
  { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (p *. float_of_int (n - 1) +. 0.5) in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 idx))

let summary_of_samples ~count ~sum ~mn ~mx samples =
  if count = 0 then empty_summary
  else begin
    let sorted = Array.copy samples in
    Array.sort Float.compare sorted;
    { count; sum; min = mn; max = mx;
      p50 = percentile sorted 0.50;
      p95 = percentile sorted 0.95;
      p99 = percentile sorted 0.99 }
  end

let summary h =
  summary_of_samples ~count:h.h_count ~sum:h.h_sum ~mn:h.h_min ~mx:h.h_max
    (Array.sub h.samples 0 h.n_samples)

let with_span h ~now f =
  let t0 = now () in
  match f () with
  | v ->
      observe h (float_of_int (now () - t0));
      v
  | exception e ->
      observe h (float_of_int (now () - t0));
      raise e

(* --- JSON ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
    else Printf.sprintf "%.12g" f

  let to_string t =
    let buf = Buffer.create 1024 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> Buffer.add_string buf (float_to_string f)
      | Str s ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape s);
          Buffer.add_char buf '"'
      | List l ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            l;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              Buffer.add_string buf (escape k);
              Buffer.add_string buf "\":";
              go v)
            fields;
          Buffer.add_char buf '}'
    in
    go t;
    Buffer.contents buf

  (* A small recursive-descent parser; strict enough for round-tripping
     snapshots and for CI to fail loudly on a torn BENCH_results.json. *)
  let of_string s =
    let pos = ref 0 in
    let len = String.length s in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let advance () = pos := !pos + 1 in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= len then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' -> Buffer.add_char buf '"'; go ()
            | '\\' -> Buffer.add_char buf '\\'; go ()
            | '/' -> Buffer.add_char buf '/'; go ()
            | 'n' -> Buffer.add_char buf '\n'; go ()
            | 'r' -> Buffer.add_char buf '\r'; go ()
            | 't' -> Buffer.add_char buf '\t'; go ()
            | 'b' -> Buffer.add_char buf '\b'; go ()
            | 'f' -> Buffer.add_char buf '\012'; go ()
            | 'u' ->
                let hex4 () =
                  if !pos + 4 > len then fail "bad \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let digit c =
                    match c with
                    | '0' .. '9' -> Char.code c - Char.code '0'
                    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                    | _ -> fail "bad \\u escape"
                  in
                  String.fold_left (fun acc c -> (acc * 16) + digit c) 0 hex
                in
                let code = hex4 () in
                (* surrogate pairs encode astral codepoints; a lone
                   surrogate is not a scalar value and is rejected *)
                let code =
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    if
                      !pos + 2 > len || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u'
                    then fail "unpaired surrogate"
                    else begin
                      pos := !pos + 2;
                      let low = hex4 () in
                      if low < 0xDC00 || low > 0xDFFF then
                        fail "unpaired surrogate"
                      else 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                    end
                  end
                  else if code >= 0xDC00 && code <= 0xDFFF then
                    fail "unpaired surrogate"
                  else code
                in
                (* UTF-8 encode the decoded scalar value *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else if code < 0x10000 then begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> fail "bad escape")
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < len && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or }"
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ]"
            in
            elements ();
            List (List.rev !items)
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* --- dotted-name filtering ------------------------------------------------- *)

(* Shared by [passctl stats --filter] and the pvtrace exporters: a name is
   under a prefix when it equals it or extends it at a dot boundary, so
   "panfs" matches "panfs.client.rpcs" but not "panfsx.rpcs". *)
let name_under ~prefix name =
  prefix = "" || String.equal name prefix
  || (let pl = String.length prefix in
      String.length name > pl
      && name.[pl] = '.'
      && String.equal (String.sub name 0 pl) prefix)

(* A user-supplied prefix must name something: empty (which would match
   everything) and empty dotted segments are operator typos. *)
let validate_prefix prefix =
  if String.equal prefix "" then
    Error "empty PREFIX (omit the filter to keep everything)"
  else if List.exists (String.equal "") (String.split_on_char '.' prefix) then
    Error (Printf.sprintf "PREFIX %S has an empty dotted segment" prefix)
  else Ok prefix

(* --- snapshots ------------------------------------------------------------- *)

(* Group same-named instruments: counters sum, gauges take the most recent
   registration, histograms merge (exact moments combine; reservoirs
   concatenate, which keeps percentiles representative). *)

let grouped t =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  (* instruments list is newest-first; walk oldest-first *)
  List.iter
    (fun (name, i) ->
      match Hashtbl.find_opt tbl name with
      | Some l -> l := i :: !l
      | None ->
          Hashtbl.add tbl name (ref [ i ]);
          order := name :: !order)
    (List.rev t.instruments);
  List.rev_map (fun name -> (name, List.rev !(Hashtbl.find tbl name))) !order

let merged_summary hs =
  let count = List.fold_left (fun a h -> a + h.h_count) 0 hs in
  if count = 0 then empty_summary
  else begin
    let live = List.filter (fun h -> h.h_count > 0) hs in
    let sum = List.fold_left (fun a h -> a +. h.h_sum) 0. live in
    let mn = List.fold_left (fun a h -> Stdlib.min a h.h_min) infinity live in
    let mx = List.fold_left (fun a h -> Stdlib.max a h.h_max) neg_infinity live in
    let samples =
      Array.concat (List.map (fun h -> Array.sub h.samples 0 h.n_samples) live)
    in
    summary_of_samples ~count ~sum ~mn ~mx samples
  end

let counter_value t name =
  let total = ref 0 and found = ref false in
  List.iter
    (fun (n, i) ->
      match i with
      | Counter c when String.equal n name ->
          found := true;
          total := !total + c.c
      | _ -> ())
    t.instruments;
  if !found then Some !total else None

let histogram_summary t name =
  let hs =
    List.filter_map
      (fun (n, i) ->
        match i with Histogram h when String.equal n name -> Some h | _ -> None)
      t.instruments
  in
  if hs = [] then None else Some (merged_summary (List.rev hs))

let snapshot ?filter t =
  let groups =
    match filter with
    | None -> grouped t
    | Some prefix ->
        List.filter (fun (name, _) -> name_under ~prefix name) (grouped t)
  in
  let by_name cmp = List.sort (fun (a, _) (b, _) -> String.compare a b) cmp in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, instruments) ->
      match instruments with
      | Counter _ :: _ ->
          let v =
            List.fold_left
              (fun a i -> match i with Counter c -> a + c.c | _ -> a)
              0 instruments
          in
          counters := (name, Json.Int v) :: !counters
      | Gauge _ :: _ ->
          (* newest registration wins *)
          let v =
            List.fold_left (fun a i -> match i with Gauge g -> g.g | _ -> a) 0. instruments
          in
          gauges := (name, Json.Float v) :: !gauges
      | Histogram _ :: _ ->
          let hs =
            List.filter_map (function Histogram h -> Some h | _ -> None) instruments
          in
          let s = merged_summary hs in
          histograms :=
            ( name,
              Json.Obj
                [
                  ("count", Json.Int s.count);
                  ("sum", Json.Float s.sum);
                  ("min", Json.Float s.min);
                  ("max", Json.Float s.max);
                  ("p50", Json.Float s.p50);
                  ("p95", Json.Float s.p95);
                  ("p99", Json.Float s.p99);
                ] )
            :: !histograms
      | [] -> ())
    groups;
  Json.Obj
    [
      ("counters", Json.Obj (by_name !counters));
      ("gauges", Json.Obj (by_name !gauges));
      ("histograms", Json.Obj (by_name !histograms));
    ]

let to_json ?filter t = Json.to_string (snapshot ?filter t)

(* --- series snapshots ------------------------------------------------------- *)

(* The structured twin of [snapshot], for scrapers (pvmon) that want the
   aggregation rules plus the information the JSON view drops: the kind of
   each name and how many instrument instances were folded into it.  The
   instance count is what lets a scraper tag last-registered-wins gauges
   instead of silently presenting one instance's value as the truth. *)

type series = {
  se_name : string;
  se_kind : [ `Counter | `Gauge | `Histogram ];
  se_value : float;
  se_instances : int;
  se_summary : summary option;
}

let series_snapshot ?filter t =
  let groups =
    match filter with
    | None -> grouped t
    | Some prefix ->
        List.filter (fun (name, _) -> name_under ~prefix name) (grouped t)
  in
  let rows =
    List.filter_map
      (fun (name, instruments) ->
        let instances = List.length instruments in
        match instruments with
        | [] -> None
        | Counter _ :: _ ->
            let v =
              List.fold_left
                (fun a i -> match i with Counter c -> a + c.c | _ -> a)
                0 instruments
            in
            Some { se_name = name; se_kind = `Counter;
                   se_value = float_of_int v; se_instances = instances;
                   se_summary = None }
        | Gauge _ :: _ ->
            (* same rule as [snapshot]: the newest registration wins *)
            let v =
              List.fold_left
                (fun a i -> match i with Gauge g -> g.g | _ -> a)
                0. instruments
            in
            Some { se_name = name; se_kind = `Gauge; se_value = v;
                   se_instances = instances; se_summary = None }
        | Histogram _ :: _ ->
            let hs =
              List.filter_map (function Histogram h -> Some h | _ -> None)
                instruments
            in
            let s = merged_summary hs in
            Some { se_name = name; se_kind = `Histogram;
                   se_value = float_of_int s.count; se_instances = instances;
                   se_summary = Some s })
      groups
  in
  List.sort (fun a b -> String.compare a.se_name b.se_name) rows
