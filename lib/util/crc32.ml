let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let mask32 = 0xFFFFFFFF

let digest_sub get length ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> length s - pos in
  if pos < 0 || len < 0 || pos + len > length s then
    invalid_arg "Crc32.digest: range out of bounds";
  let table = Lazy.force table in
  let crc = ref mask32 in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code (get s i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor mask32 land mask32

let digest ?pos ?len s = digest_sub String.unsafe_get String.length ?pos ?len s
