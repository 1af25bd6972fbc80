(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
    guarding binary frame headers on the service wire.  Table-driven, no
    external dependencies; the digest of [""] is [0] and of ["123456789"]
    is [0xCBF43926] (the standard check value). *)

val digest : ?pos:int -> ?len:int -> string -> int
(** [digest ?pos ?len s] the CRC-32 of the given substring (the whole
    string by default) as a non-negative int in [\[0, 2³²)].  Raises
    [Invalid_argument] when the range falls outside [s]. *)
