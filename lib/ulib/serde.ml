type 'a t = {
  enc : Buffer.t -> 'a -> unit;
  dec : bytes -> int -> ('a * int) option;
}

let u8 =
  {
    enc = (fun b v -> Buffer.add_char b (Char.chr (v land 0xFF)));
    dec =
      (fun s i ->
        if i + 1 > Bytes.length s then None
        else Some (Char.code (Bytes.get s i), i + 1));
  }

let u16 =
  {
    enc =
      (fun b v ->
        Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
        Buffer.add_char b (Char.chr (v land 0xFF)));
    dec =
      (fun s i ->
        if i + 2 > Bytes.length s then None
        else
          Some
            ( (Char.code (Bytes.get s i) lsl 8) lor Char.code (Bytes.get s (i + 1)),
              i + 2 ));
  }

let u32 =
  {
    enc =
      (fun b v ->
        for shift = 3 downto 0 do
          Buffer.add_char b
            (Char.chr
               (Int32.to_int (Int32.shift_right_logical v (8 * shift))
               land 0xFF))
        done);
    dec =
      (fun s i ->
        if i + 4 > Bytes.length s then None
        else begin
          let v = ref 0l in
          for k = 0 to 3 do
            v :=
              Int32.logor (Int32.shift_left !v 8)
                (Int32.of_int (Char.code (Bytes.get s (i + k))))
          done;
          Some (!v, i + 4)
        end);
  }

let u64 =
  {
    enc =
      (fun b v ->
        for shift = 7 downto 0 do
          Buffer.add_char b
            (Char.chr
               (Int64.to_int (Int64.shift_right_logical v (8 * shift))
               land 0xFF))
        done);
    dec =
      (fun s i ->
        if i + 8 > Bytes.length s then None
        else begin
          let v = ref 0L in
          for k = 0 to 7 do
            v :=
              Int64.logor (Int64.shift_left !v 8)
                (Int64.of_int (Char.code (Bytes.get s (i + k))))
          done;
          Some (!v, i + 8)
        end);
  }

let varint =
  {
    enc =
      (fun b v ->
        if v < 0 then invalid_arg "Serde.varint: negative";
        let rec go v =
          if v < 0x80 then Buffer.add_char b (Char.chr v)
          else begin
            Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
            go (v lsr 7)
          end
        in
        go v);
    dec =
      (fun s i ->
        let rec go i shift acc =
          if i >= Bytes.length s || shift > 56 then None
          else begin
            let c = Char.code (Bytes.get s i) in
            let acc = acc lor ((c land 0x7F) lsl shift) in
            if c land 0x80 = 0 then Some (acc, i + 1)
            else go (i + 1) (shift + 7) acc
          end
        in
        go i 0 0);
  }

let bool =
  {
    enc = (fun b v -> Buffer.add_char b (if v then '\001' else '\000'));
    dec =
      (fun s i ->
        if i + 1 > Bytes.length s then None
        else begin
          match Bytes.get s i with
          | '\000' -> Some (false, i + 1)
          | '\001' -> Some (true, i + 1)
          | _ -> None
        end);
  }

let string =
  {
    enc =
      (fun b v ->
        varint.enc b (String.length v);
        Buffer.add_string b v);
    dec =
      (fun s i ->
        match varint.dec s i with
        | None -> None
        | Some (len, j) ->
            if len < 0 || j + len > Bytes.length s then None
            else Some (Bytes.sub_string s j len, j + len));
  }

let bytes =
  {
    enc = (fun b v -> string.enc b (Bytes.to_string v));
    dec =
      (fun s i ->
        match string.dec s i with
        | None -> None
        | Some (v, j) -> Some (Bytes.of_string v, j));
  }

let pair a b =
  {
    enc =
      (fun buf (x, y) ->
        a.enc buf x;
        b.enc buf y);
    dec =
      (fun s i ->
        match a.dec s i with
        | None -> None
        | Some (x, j) -> (
            match b.dec s j with
            | None -> None
            | Some (y, k) -> Some ((x, y), k)));
  }

let triple a b c =
  let p = pair a (pair b c) in
  {
    enc = (fun buf (x, y, z) -> p.enc buf (x, (y, z)));
    dec =
      (fun s i ->
        match p.dec s i with
        | None -> None
        | Some ((x, (y, z)), j) -> Some ((x, y, z), j));
  }

let list a =
  {
    enc =
      (fun buf xs ->
        varint.enc buf (List.length xs);
        List.iter (a.enc buf) xs);
    dec =
      (fun s i ->
        match varint.dec s i with
        | None -> None
        | Some (n, j) ->
            let rec go k j acc =
              if k = 0 then Some (List.rev acc, j)
              else begin
                match a.dec s j with
                | None -> None
                | Some (x, j') -> go (k - 1) j' (x :: acc)
              end
            in
            if n < 0 then None else go n j []);
  }

let option a =
  {
    enc =
      (fun buf -> function
        | None -> bool.enc buf false
        | Some x ->
            bool.enc buf true;
            a.enc buf x);
    dec =
      (fun s i ->
        match bool.dec s i with
        | None -> None
        | Some (false, j) -> Some (None, j)
        | Some (true, j) -> (
            match a.dec s j with
            | None -> None
            | Some (x, k) -> Some (Some x, k)));
  }

let map inj prj c =
  {
    enc = (fun buf v -> c.enc buf (prj v));
    dec =
      (fun s i ->
        match c.dec s i with
        | None -> None
        | Some (x, j) -> Some (inj x, j));
  }

let encode_to b c v = c.enc b v

let encode c v =
  let b = Buffer.create 64 in
  c.enc b v;
  Buffer.to_bytes b

let decode c s =
  match c.dec s 0 with
  | Some (v, n) when n = Bytes.length s -> Some v
  | Some _ | None -> None

let decode_prefix c s ~off = c.dec s off
